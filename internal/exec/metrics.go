package exec

import (
	"io"
	"time"

	"gis/internal/admission"
	"gis/internal/obs"
	"gis/internal/source"
	"gis/internal/types"
)

// Package-cached metric handles: operator hot paths must not pay a
// registry map lookup per row (or even per operator).
var (
	mSourceRows    = obs.Default().Counter("exec.source.rows_fetched")
	mSourceBytes   = obs.Default().Counter("exec.source.bytes_fetched")
	mJoinBuildRows = obs.Default().Counter("exec.join.build_rows")
	mJoinProbeRows = obs.Default().Counter("exec.join.probe_rows")
	mAggInputRows  = obs.Default().Counter("exec.agg.input_rows")
	mAggGroups     = obs.Default().Counter("exec.agg.groups")
	mUnionBranches = obs.Default().Counter("exec.union.parallel_branches")
	mUnionDegraded = obs.Default().Counter("exec.union.degraded_branches")
	mJoinDegraded  = obs.Default().Counter("exec.join.degraded_fragments")
	mShipLatency   = obs.Default().Histogram("exec.source.ship_seconds", obs.LatencyBuckets)
)

// fetchIter wraps the remote stream of one fragment scan and does what
// must happen whether or not the statement is measured: feed the
// process-wide source counters and charge the tenant's byte quota.
// Counter flushes are batched to stream end so the per-row cost is two
// integer adds.
type fetchIter struct {
	in          source.RowIter
	shipStart   time.Time // just before Execute: the whole round trip
	rows, bytes int64
	done        bool
	// sess, when set, charges fetched bytes against the admitted
	// session's tenant memory quota; acct batches the charge so the
	// per-row cost stays two integer adds.
	sess *admission.Session
	acct int64
}

// acctFlushBytes batches quota accounting: the tenant account lags the
// true stream size by at most this much per fragment, in exchange for
// one atomic update per chunk instead of two per row.
const acctFlushBytes = 32 << 10

func (f *fetchIter) Next() (types.Row, error) {
	r, err := f.in.Next()
	if err == nil {
		f.rows++
		n := int64(r.EstimatedSize())
		f.bytes += n
		if f.sess != nil {
			f.acct += n
			if f.acct >= acctFlushBytes {
				charge := f.acct
				f.acct = 0
				if aerr := f.sess.AddBytes(charge); aerr != nil {
					// The tenant blew its memory quota and this session
					// was (or already had been) chosen as the victim.
					return nil, aerr
				}
			}
		}
	} else if err == io.EOF {
		f.finish()
	}
	return r, err
}

func (f *fetchIter) Close() error {
	err := f.in.Close()
	f.finish()
	return err
}

func (f *fetchIter) finish() {
	if f.done {
		return
	}
	f.done = true
	if f.sess != nil && f.acct > 0 {
		_ = f.sess.AddBytes(f.acct) // the stream is over; nothing to abort
		f.acct = 0
	}
	mSourceRows.Add(f.rows)
	mSourceBytes.Add(f.bytes)
	mShipLatency.ObserveSince(f.shipStart)
}
