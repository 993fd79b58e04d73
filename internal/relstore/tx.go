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

// undoRec is one write to take back. A replace keeps the row it
// overwrote; a delete and an insert need nothing, since a row's values
// stay where they are when its live bit is cleared.
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

// table starts a write statement on tbl: it takes the store lock, held
// from the transaction's first write, and finds the table. An index
// probe still being read holds chunks without a view, so while one is
// open the write takes a view for it (table.own copies what it holds).
func (tx *Tx) table(tbl string) (*table, error) {
	if err := tx.ensureLocked(); err != nil {
		return nil, err
	}
	t, err := tx.s.lookup(tbl)
	if err == nil && t.probing.Load() != 0 {
		t.views.Add(1)
	}
	return t, err
}

// release drops the store lock if held.
func (tx *Tx) release() {
	if tx.locked {
		tx.locked = false
		tx.s.mu.Unlock()
	}
}

// Insert implements source.Writer within the transaction. Each row is
// coerced into one scratch row, key-checked and appended to the vectors.
func (tx *Tx) Insert(_ context.Context, tbl string, rows []types.Row) (int64, error) {
	t, err := tx.table(tbl)
	if err != nil {
		return 0, err
	}
	if err := (&source.TableInfo{Schema: t.schema}).CheckWrite(tbl, nil, rows); err != nil {
		return 0, fmt.Errorf("relstore %s: %w", tx.s.name, err)
	}
	for _, x := range t.indexes {
		x.Reserve(int(t.live.Load())+len(rows), x.rehash)
	}
	nr := make(types.Row, t.schema.Len())
	var n int64
	for _, r := range rows {
		if t.n == maxRows {
			return n, fmt.Errorf("relstore %s table %s: full at %d rows", tx.s.name, tbl, maxRows)
		}
		for i, v := range r {
			col := t.schema.Columns[i]
			if nr[i], err = v.Coerce(col.Type); err != nil {
				return n, fmt.Errorf("relstore %s table %s: column %s: %w", tx.s.name, tbl, col.Name, err)
			}
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
// bound over the table schema; nil matches every row. SetRow's new row
// is written into the vectors, then keeps the old values for the undo.
func (tx *Tx) Update(_ context.Context, tbl string, filter expr.Expr, set []source.SetClause) (int64, error) {
	t, err := tx.table(tbl)
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
	r := make(types.Row, t.schema.Len()) // the row in hand
	err = t.match(filter, r[:filterWidth(filter)], func(pos int, c *types.Chunk) error {
		c.Decode(pos%types.ChunkRows, r)
		nr, err := source.SetRow(t.schema, r, set)
		if err == nil && setsKey {
			err = t.checkKey(nr, pos)
		}
		if err != nil {
			return fmt.Errorf("relstore %s table %s: %w", tx.s.name, tbl, err)
		}
		t.replaceLocked(pos, nr)
		copy(nr, r)
		tx.undo = append(tx.undo, undoRec{kind: undoReplace, t: t, pos: pos, old: nr})
		n++
		return nil
	})
	return n, err
}

// Delete implements source.Writer within the transaction.
func (tx *Tx) Delete(_ context.Context, tbl string, filter expr.Expr) (int64, error) {
	t, err := tx.table(tbl)
	if err != nil {
		return 0, err
	}
	var n int64
	err = t.match(filter, make(types.Row, filterWidth(filter)), func(pos int, _ *types.Chunk) error {
		t.setLiveLocked(pos, false)
		tx.undo = append(tx.undo, undoRec{kind: undoDelete, t: t, pos: pos})
		n++
		return nil
	})
	return n, err
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
			u.t.setLiveLocked(u.pos, false)
		case undoDelete:
			u.t.setLiveLocked(u.pos, true)
		case undoReplace:
			u.t.replaceLocked(u.pos, u.old)
		}
	}
	tx.undo = nil
	tx.state = txAborted
	tx.release()
	return nil
}

// checkKey enforces the primary key: r's key holds no NULL and no row
// but the one at position self, which r is about to replace (-1: r is
// new), holds r's key. It compares r with the rows in the bucket of its
// first key column's hash, a key column at a time.
func (t *table) checkKey(r types.Row, self int) error {
	if len(t.key) == 0 {
		return nil
	}
	for _, k := range t.key {
		if r[k].IsNull() {
			return errors.New("NULL key")
		}
	}
	x := t.index(t.key[0])
	for p := x.First(r[x.col].Hash(0)); p >= 0; p = x.Next(p) {
		if p != self && !slices.ContainsFunc(t.key, func(k int) bool { return !t.value(p, k).Equal(r[k]) }) {
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
