// Package faults provides seeded, deterministic fault injection for the
// federation's wire links. A Plan describes per-link failure behavior —
// transient error rates, connection drops, latency stalls, and timed
// partition windows — optionally scoped to operation classes (reads,
// writes, 2PC messages). The wire transport consults a per-link Injector
// on every frame, so a single seed reproduces an entire failure
// schedule across runs: the foundation the chaos tests are built on.
//
// Kameny's component systems are autonomous: the mediator must assume
// any of them can be slow, flaky, or gone. This package makes "flaky"
// a first-class, reproducible input instead of a production surprise.
package faults

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// OpClass partitions wire operations by their retry semantics: reads
// are idempotent, writes and 2PC messages are not. Fault clauses can
// target specific classes (e.g. fail only commits) to exercise the
// coordinator's in-doubt paths.
type OpClass uint8

const (
	// OpConnect is the TCP dial itself.
	OpConnect OpClass = iota
	// OpRead covers metadata fetches and query/row streaming.
	OpRead
	// OpWrite covers insert/update/delete and transaction begin.
	OpWrite
	// OpPrepare is the 2PC vote request.
	OpPrepare
	// OpCommit is the 2PC decision broadcast.
	OpCommit
	// OpAbort is the 2PC rollback message.
	OpAbort
)

// String implements fmt.Stringer.
func (c OpClass) String() string {
	switch c {
	case OpConnect:
		return "connect"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpPrepare:
		return "prepare"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	default:
		return "op(" + strconv.Itoa(int(c)) + ")"
	}
}

// parseOpClass is the inverse of String for plan specs.
func parseOpClass(s string) (OpClass, error) {
	switch s {
	case "connect":
		return OpConnect, nil
	case "read":
		return OpRead, nil
	case "write":
		return OpWrite, nil
	case "prepare":
		return OpPrepare, nil
	case "commit":
		return OpCommit, nil
	case "abort":
		return OpAbort, nil
	default:
		return 0, fmt.Errorf("faults: unknown op class %q", s)
	}
}

// Injection failure modes. Injected errors wrap one of these so callers
// (and tests) can classify them with errors.Is.
var (
	// ErrInjected is a transient request failure: the frame is rejected
	// but the connection survives. Models a busy or misbehaving source.
	ErrInjected = errors.New("injected transient error")
	// ErrDropped kills the connection mid-operation. Models a source
	// crash or a middlebox cutting the TCP stream.
	ErrDropped = errors.New("injected connection drop")
	// ErrPartitioned rejects the operation during a partition window.
	ErrPartitioned = errors.New("link partitioned")
)

// Injected reports whether err originated from fault injection.
func Injected(err error) bool {
	return errors.Is(err, ErrInjected) || errors.Is(err, ErrDropped) || errors.Is(err, ErrPartitioned)
}

// LinkFaults is one link's failure behavior. Probabilities are in
// [0,1] and evaluated independently per operation in the order
// partition, error, drop, stall. The zero value injects nothing.
type LinkFaults struct {
	// ErrRate is the probability of a transient error (conn survives).
	ErrRate float64
	// DropRate is the probability of a connection drop.
	DropRate float64
	// StallRate is the probability of stalling for Stall; defaults to 1
	// when Stall is set and no rate is given in a parsed spec.
	StallRate float64
	// Stall is the injected latency spike (context-aware sleep).
	Stall time.Duration
	// PartitionAfter/PartitionFor define a partition window relative to
	// the injector's creation: operations started inside
	// [After, After+For) fail with ErrPartitioned.
	PartitionAfter time.Duration
	PartitionFor   time.Duration
	// Ops restricts injection to the listed classes; empty means all.
	Ops []OpClass
}

func (f LinkFaults) active() bool {
	return f.ErrRate > 0 || f.DropRate > 0 || (f.Stall > 0 && f.StallRate > 0) || f.PartitionFor > 0
}

func (f LinkFaults) applies(c OpClass) bool {
	if len(f.Ops) == 0 {
		return true
	}
	for _, op := range f.Ops {
		if op == c {
			return true
		}
	}
	return false
}

// Plan maps link names (source names) to fault behavior. The entry
// under "*" applies to any link without a specific entry.
type Plan struct {
	// Seed makes every probabilistic decision reproducible; per link,
	// decision k of a given plan is identical across runs.
	Seed int64
	// Links maps link name → faults; "*" is the default entry.
	Links map[string]LinkFaults
}

// Link builds the deterministic injector for one named link, or nil if
// the plan (possibly nil itself) has nothing to inject there. A nil
// *Injector is valid and injects nothing.
func (p *Plan) Link(name string) *Injector {
	if p == nil {
		return nil
	}
	f, ok := p.Links[name]
	if !ok {
		f, ok = p.Links["*"]
	}
	if !ok || !f.active() {
		return nil
	}
	return &Injector{
		name:  name,
		f:     f,
		rng:   uint64(p.Seed) ^ hashName(name) ^ 0x9e3779b97f4a7c15,
		epoch: time.Now(),
	}
}

// ParsePlan parses the flag syntax shared by gisd and gisql:
//
//	seed=N;link:fault,fault;link:fault,...
//
// where link is a source name or "*" (default for unnamed links) and
// each fault is one of
//
//	err=P          transient error probability
//	drop=P         connection-drop probability
//	stall=DUR      latency spike duration (e.g. 50ms)
//	stallp=P       stall probability (defaults to 1 when stall is set)
//	part=AFTER+FOR partition window, e.g. part=2s+5s
//	ops=C+C        restrict to op classes: connect,read,write,prepare,commit,abort
//
// Example: "seed=7;*:err=0.05;ny:drop=0.1,stall=40ms,stallp=0.3,ops=read".
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{Links: make(map[string]LinkFaults)}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok && !strings.Contains(clause, ":") {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", v)
			}
			p.Seed = seed
			continue
		}
		link, faultsSpec, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faults: bad clause %q: want link:fault,... or seed=N", clause)
		}
		link = strings.TrimSpace(link)
		if link == "" {
			return nil, fmt.Errorf("faults: empty link name in %q", clause)
		}
		lf, err := parseLinkFaults(faultsSpec)
		if err != nil {
			return nil, err
		}
		p.Links[link] = lf
	}
	if len(p.Links) == 0 {
		return nil, fmt.Errorf("faults: plan %q declares no link faults", spec)
	}
	return p, nil
}

func parseLinkFaults(spec string) (LinkFaults, error) {
	var lf LinkFaults
	stallpSet := false
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return lf, fmt.Errorf("faults: bad fault %q: want key=value", f)
		}
		var err error
		switch key {
		case "err":
			lf.ErrRate, err = parseProb(val)
		case "drop":
			lf.DropRate, err = parseProb(val)
		case "stall":
			lf.Stall, err = time.ParseDuration(val)
		case "stallp":
			lf.StallRate, err = parseProb(val)
			stallpSet = true
		case "part":
			after, forPart, ok := strings.Cut(val, "+")
			if !ok {
				return lf, fmt.Errorf("faults: bad partition %q: want part=AFTER+FOR", val)
			}
			if lf.PartitionAfter, err = time.ParseDuration(after); err == nil {
				lf.PartitionFor, err = time.ParseDuration(forPart)
			}
		case "ops":
			for _, s := range strings.Split(val, "+") {
				op, perr := parseOpClass(strings.TrimSpace(s))
				if perr != nil {
					return lf, perr
				}
				lf.Ops = append(lf.Ops, op)
			}
		default:
			return lf, fmt.Errorf("faults: unknown fault key %q", key)
		}
		if err != nil {
			return lf, fmt.Errorf("faults: bad %s value %q: %v", key, val, err)
		}
	}
	if lf.Stall > 0 && !stallpSet {
		lf.StallRate = 1
	}
	return lf, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// Injector makes the per-operation fault decisions for one link. Its
// random stream is a private splitmix64 generator seeded from the plan
// seed and the link name, so the k-th decision on a link is a pure
// function of (seed, link, k) — independent of goroutine scheduling
// only in the sequence of values, which is all determinism the chaos
// tests need. A nil *Injector injects nothing.
type Injector struct {
	name  string
	f     LinkFaults
	epoch time.Time

	mu  sync.Mutex
	rng uint64
}

// next draws one uniform float64 in [0,1).
func (in *Injector) next() float64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// hashName is FNV-1a, inlined to keep the seed derivation obvious.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Inject decides the fate of one operation of the given class: nil
// (proceed), a transient error, a drop (the caller must kill the
// connection), a partition rejection, or a context-aware stall. Stalls
// return early with the context's error if the caller is cancelled —
// a cancelled query stops paying injected latency immediately.
func (in *Injector) Inject(ctx context.Context, class OpClass) error {
	if in == nil || !in.f.applies(class) {
		return nil
	}
	in.mu.Lock()
	if in.f.PartitionFor > 0 {
		since := time.Since(in.epoch)
		if since >= in.f.PartitionAfter && since < in.f.PartitionAfter+in.f.PartitionFor {
			in.mu.Unlock()
			return fmt.Errorf("faults: link %s %s: %w", in.name, class, ErrPartitioned)
		}
	}
	if in.f.ErrRate > 0 && in.next() < in.f.ErrRate {
		in.mu.Unlock()
		return fmt.Errorf("faults: link %s %s: %w", in.name, class, ErrInjected)
	}
	if in.f.DropRate > 0 && in.next() < in.f.DropRate {
		in.mu.Unlock()
		return fmt.Errorf("faults: link %s %s: %w", in.name, class, ErrDropped)
	}
	stall := in.f.Stall > 0 && in.f.StallRate > 0 && in.next() < in.f.StallRate
	in.mu.Unlock()
	if stall {
		t := time.NewTimer(in.f.Stall)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
