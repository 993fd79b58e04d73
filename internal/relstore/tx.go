package relstore

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

type txState uint8

const (
	txActive txState = iota
	txPrepared
	txCommitted
	txAborted
)

// Tx is a store transaction. Writes are applied immediately under the
// store lock and recorded in an undo log; the lock is held until commit
// or abort (strict two-phase locking at store granularity), which is what
// lets Prepare guarantee a successful Commit.
type Tx struct {
	s      *Store
	state  txState
	locked bool
	undo   []undoRec
}

type undoKind uint8

const (
	undoInsert undoKind = iota
	undoDelete
	undoReplace
)

type undoRec struct {
	kind undoKind
	t    *table
	pos  int
	old  types.Row
}

// BeginTx implements source.Transactional.
func (s *Store) BeginTx(context.Context) (source.Tx, error) {
	return &Tx{s: s}, nil
}

// ensureLocked acquires the store write lock on the first mutation.
func (tx *Tx) ensureLocked() error {
	if tx.state != txActive {
		return fmt.Errorf("relstore %s: transaction is not active", tx.s.name)
	}
	if !tx.locked {
		tx.s.mu.Lock()
		tx.locked = true
	}
	return nil
}

// release drops the store lock if held.
func (tx *Tx) release() {
	if tx.locked {
		tx.locked = false
		tx.s.mu.Unlock()
	}
}

// Insert implements source.Writer within the transaction.
func (tx *Tx) Insert(_ context.Context, tbl string, rows []types.Row) (int64, error) {
	if err := tx.ensureLocked(); err != nil {
		return 0, err
	}
	t, err := tx.s.lookup(tbl)
	if err != nil {
		return 0, err
	}
	if err := (&source.TableInfo{Schema: t.schema}).CheckWrite(tbl, nil, rows); err != nil {
		return 0, fmt.Errorf("relstore %s: %w", tx.s.name, err)
	}
	var n int64
	for _, r := range rows {
		nr, err := source.NormalizeRow(t.schema, r)
		if err != nil {
			return n, fmt.Errorf("relstore %s table %s: %w", tx.s.name, tbl, err)
		}
		if err := t.checkKey(nr, -1); err != nil {
			return n, fmt.Errorf("relstore %s table %s: %w", tx.s.name, tbl, err)
		}
		pos := t.insertLocked(nr)
		tx.undo = append(tx.undo, undoRec{kind: undoInsert, t: t, pos: pos})
		n++
	}
	return n, nil
}

// Update implements source.Writer within the transaction. filter is
// bound over the table schema; nil matches every row.
func (tx *Tx) Update(_ context.Context, tbl string, filter expr.Expr, set []source.SetClause) (int64, error) {
	if err := tx.ensureLocked(); err != nil {
		return 0, err
	}
	t, err := tx.s.lookup(tbl)
	if err != nil {
		return 0, err
	}
	if err := (&source.TableInfo{Schema: t.schema}).CheckWrite(tbl, set, nil); err != nil {
		return 0, fmt.Errorf("relstore %s: %w", tx.s.name, err)
	}
	// A SET of a key column can make the row NULL-keyed or another
	// row's duplicate.
	setsKey := slices.ContainsFunc(set, func(sc source.SetClause) bool { return slices.Contains(t.key, sc.Col) })
	var n int64
	for pos := 0; pos < t.n; pos++ {
		r := t.at(pos)
		if r == nil {
			continue
		}
		if filter != nil {
			ok, err := expr.EvalBool(filter, r)
			if err != nil {
				return n, err
			}
			if !ok {
				continue
			}
		}
		nr := r.Clone()
		for _, sc := range set {
			v, err := sc.Value.Eval(r)
			if err != nil {
				return n, err
			}
			cv, err := source.CoerceForColumn(v, t.schema.Columns[sc.Col].Type)
			if err != nil {
				return n, err
			}
			nr[sc.Col] = cv
		}
		if setsKey {
			if err := t.checkKey(nr, pos); err != nil {
				return n, fmt.Errorf("relstore %s table %s: %w", tx.s.name, tbl, err)
			}
		}
		old := t.replaceLocked(pos, nr)
		tx.undo = append(tx.undo, undoRec{kind: undoReplace, t: t, pos: pos, old: old})
		n++
	}
	return n, nil
}

// Delete implements source.Writer within the transaction.
func (tx *Tx) Delete(_ context.Context, tbl string, filter expr.Expr) (int64, error) {
	if err := tx.ensureLocked(); err != nil {
		return 0, err
	}
	t, err := tx.s.lookup(tbl)
	if err != nil {
		return 0, err
	}
	var n int64
	for pos := 0; pos < t.n; pos++ {
		r := t.at(pos)
		if r == nil {
			continue
		}
		if filter != nil {
			ok, err := expr.EvalBool(filter, r)
			if err != nil {
				return n, err
			}
			if !ok {
				continue
			}
		}
		old := t.deleteLocked(pos)
		tx.undo = append(tx.undo, undoRec{kind: undoDelete, t: t, pos: pos, old: old})
		n++
	}
	return n, nil
}

// Prepare implements source.Tx: it votes on commit. After a successful
// Prepare, Commit cannot fail (the lock is held; the data is applied).
func (tx *Tx) Prepare(context.Context) error {
	if tx.state != txActive {
		return fmt.Errorf("relstore %s: prepare in state %d", tx.s.name, tx.state)
	}
	tx.state = txPrepared
	return nil
}

// Commit implements source.Tx. Committing an already-committed
// transaction is a no-op (the coordinator retries after lost acks).
func (tx *Tx) Commit(context.Context) error {
	switch tx.state {
	case txCommitted:
		return nil
	case txAborted:
		return fmt.Errorf("relstore %s: commit after abort", tx.s.name)
	default:
		// Active or prepared: proceed with the commit below.
	}
	tx.state = txCommitted
	tx.undo = nil
	tx.release()
	return nil
}

// Abort implements source.Tx: it rolls the undo log back. Abort is
// idempotent; aborting a committed transaction is an error.
func (tx *Tx) Abort(context.Context) error {
	switch tx.state {
	case txAborted:
		return nil
	case txCommitted:
		return fmt.Errorf("relstore %s: abort after commit", tx.s.name)
	default:
		// Active or prepared: roll back below.
	}
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		switch u.kind {
		case undoInsert:
			u.t.deleteLocked(u.pos)
		case undoDelete:
			u.t.set(u.pos, u.old)
			u.t.live.Add(1)
		case undoReplace:
			u.t.replaceLocked(u.pos, u.old)
		}
	}
	tx.undo = nil
	tx.state = txAborted
	tx.release()
	return nil
}

// checkKey enforces the primary key: r's key holds no NULL and, using
// the key hash index when present, no row but the one at position self,
// which r is about to replace (-1: r is new), holds r's key.
func (t *table) checkKey(r types.Row, self int) error {
	if len(t.key) == 0 {
		return nil
	}
	for _, k := range t.key {
		if r[k].IsNull() {
			return errors.New("NULL key")
		}
	}
	probe := t.key[0]
	idx, ok := t.hashIdx[probe]
	if !ok {
		return nil
	}
	for _, pos := range idx[r[probe].Hash(0)] {
		ex := t.at(pos)
		if ex == nil || pos == self {
			continue
		}
		same := true
		for _, k := range t.key {
			if !ex[k].Equal(r[k]) {
				same = false
				break
			}
		}
		if same {
			return fmt.Errorf("duplicate key %v", keyOf(r, t.key))
		}
	}
	return nil
}

func keyOf(r types.Row, key []int) types.Row {
	out := make(types.Row, len(key))
	for i, k := range key {
		out[i] = r[k]
	}
	return out
}
