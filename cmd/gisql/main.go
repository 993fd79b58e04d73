// Command gisql is the interactive shell of the federation: it connects
// to one or more gisd component systems (or starts an in-process demo
// federation), auto-imports their tables into a global schema, and runs
// global SQL against the mediator.
//
// Usage:
//
//	gisql -source ny=localhost:7070 -source eu=localhost:7071
//	gisql -demo                       # self-contained demo federation
//	gisql -demo -e "SELECT ..."       # one-shot query
//
// Shell commands: \tables, \sources, \explain <query>, \analyze
// <query>, \trace (span tree of the last statement), \metrics (metrics
// snapshot), \q. Tracing is on by default in the shell; -debug-addr
// additionally serves the introspection endpoint over HTTP.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"gis/internal/admission"
	"gis/internal/catalog"
	"gis/internal/core"
	"gis/internal/faults"
	"gis/internal/obs"
	"gis/internal/relstore"
	"gis/internal/resilience"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/types"
	"gis/internal/wire"
)

type sourceFlag []string

func (s *sourceFlag) String() string { return strings.Join(*s, ",") }

func (s *sourceFlag) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var (
		sources   sourceFlag
		demo      = flag.Bool("demo", false, "start an in-process demo federation")
		config    = flag.String("config", "", "JSON federation description (catalog.Config)")
		oneShot   = flag.String("e", "", "execute one statement and exit")
		noTrace   = flag.Bool("no-trace", false, "disable per-statement tracing")
		debugAddr = flag.String("debug-addr", "", "serve metrics/pprof/sessions on this address")
		resil     = flag.Bool("resilience", true, "retry idempotent reads and shed load from failing sources (circuit breakers)")
		partial   = flag.Bool("partial", false, "degrade to partial results when a non-essential source fails")
		faultPlan = flag.String("fault-plan", "", `client-side seeded fault-injection plan, e.g. "seed=7;ny:err=0.05"`)
		retries   = flag.Int("retries", 2, "retry attempts for idempotent reads (with -resilience)")
		callTO    = flag.Duration("call-timeout", 2*time.Second, "per-attempt deadline for metadata calls (with -resilience)")
		brkThresh = flag.Int("breaker-threshold", 4, "consecutive failures before a source's breaker opens (0 disables)")
		brkCool   = flag.Duration("breaker-cooldown", 500*time.Millisecond, "how long an open breaker rejects calls before probing")
		dialTO    = flag.Duration("connect-timeout", wire.DefaultDialTimeout, "TCP connect timeout for component systems")
		queryLog  = flag.String("query-log", "", "append structured JSON query-log records to this file")
		qlSample  = flag.Float64("query-log-sample", 0, "fraction of fast statements to log (slow ones are always logged)")

		tenant      = flag.String("tenant", "", "tenant to run statements as (rides the wire handshake to component systems)")
		deadline    = flag.Duration("deadline", 0, "default per-statement deadline, propagated to remote fragments (0 = none)")
		maxInflight = flag.Int("max-inflight", 0, "admission: max concurrently executing statements (0 = unlimited)")
		tenantRate  = flag.Float64("tenant-rate", 0, "admission: per-tenant sustained statements/sec (0 = unlimited)")
		memQuota    = flag.Int64("mem-quota", 0, "bytes one statement may hold at the mediator (0 = unlimited)")
	)
	flag.Var(&sources, "source", "component system: name=host:port (repeatable)")
	flag.Parse()

	e := core.New()
	e.SetTracing(!*noTrace)
	e.SetPartialResults(*partial)
	if *resil {
		policy = resilience.DefaultPolicy()
		policy.MaxRetries = *retries
		policy.CallTimeout = *callTO
		policy.BreakerThreshold = *brkThresh
		policy.BreakerCooldown = *brkCool
	}
	if *faultPlan != "" {
		fp, err := faults.ParsePlan(*faultPlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gisql: -fault-plan: %v\n", err)
			os.Exit(1)
		}
		clientFaults = fp
	}
	connectTimeout = *dialTO
	clientTenant = *tenant
	if *maxInflight > 0 || *tenantRate > 0 || *memQuota > 0 || *deadline > 0 {
		e.SetAdmission(admission.New(admission.Config{
			MaxInFlight:     *maxInflight,
			TenantRate:      *tenantRate,
			MemQuota:        *memQuota,
			DefaultDeadline: *deadline,
			// Breaker-style shedding: when any source's breaker is open,
			// over-limit statements are shed instead of queued.
			Degraded: degraded,
		}))
	}
	if *queryLog != "" {
		f, err := os.OpenFile(*queryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gisql: -query-log: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		e.Queries().SetStructured(obs.NewStructuredLog(f, *qlSample, sql.Fingerprint))
	}
	ctx := context.Background()
	if *tenant != "" {
		ctx = admission.WithTenant(ctx, *tenant)
	}

	if *debugAddr != "" {
		go func() {
			h := obs.Handler(obs.Default(), e.Queries())
			if err := http.ListenAndServe(*debugAddr, h); err != nil {
				fmt.Fprintf(os.Stderr, "gisql: debug endpoint: %v\n", err)
			}
		}()
	}

	switch {
	case *config != "":
		data, err := os.ReadFile(*config)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gisql: %v\n", err)
			os.Exit(1)
		}
		if err := e.ApplyConfig(ctx, data, dialSource); err != nil {
			fmt.Fprintf(os.Stderr, "gisql: %v\n", err)
			os.Exit(1)
		}
	case *demo:
		if err := buildDemo(ctx, e); err != nil {
			fmt.Fprintf(os.Stderr, "gisql: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("demo federation ready: tables customers, orders")
	case len(sources) > 0:
		for _, def := range sources {
			if err := attachSource(ctx, e, def); err != nil {
				fmt.Fprintf(os.Stderr, "gisql: %v\n", err)
				os.Exit(1)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "gisql: provide -source name=addr (repeatable), -config file.json, or -demo")
		os.Exit(2)
	}
	if err := e.Analyze(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "gisql: analyze: %v\n", err)
	}

	if *oneShot != "" {
		if err := runStatement(ctx, e, *oneShot); err != nil {
			fmt.Fprintf(os.Stderr, "gisql: %v\n", err)
			os.Exit(1)
		}
		return
	}
	repl(ctx, e)
}

// policy, set by -resilience, guards every source the shell registers;
// guards are those sources, whose breakers the admission hook reads.
var (
	policy *resilience.Policy
	guards []*resilience.Guarded
)

// guard wraps src under the -resilience policy, when there is one.
func guard(src source.Source) source.Source {
	if policy == nil {
		return src
	}
	g := resilience.WrapSource(src, policy)
	guards = append(guards, g)
	return g
}

// degraded reports whether any guarded source's breaker is open: the
// admission hook that sheds over-limit statements instead of queueing
// them while part of the federation is failing.
func degraded() bool {
	for _, g := range guards {
		if g.Breaker().State() == resilience.BreakerOpen {
			return true
		}
	}
	return false
}

// clientFaults, when set by -fault-plan, injects faults on every
// client-side link; connectTimeout bounds the TCP dial; clientTenant is
// announced in every connection handshake.
var (
	clientFaults   *faults.Plan
	connectTimeout = wire.DefaultDialTimeout
	clientTenant   string
)

// dialOpts assembles the wire options shared by every outbound dial.
func dialOpts(name string) []wire.Option {
	opts := []wire.Option{wire.WithName(name), wire.WithConnectTimeout(connectTimeout)}
	if clientFaults != nil {
		opts = append(opts, wire.WithFaultPlan(clientFaults))
	}
	if clientTenant != "" {
		opts = append(opts, wire.WithTenant(clientTenant))
	}
	return opts
}

// dialSource connects one config-declared component system, applying
// any simulated link parameters it specifies, and guards it.
func dialSource(ctx context.Context, sc catalog.SourceConfig) (source.Source, error) {
	opts := dialOpts(sc.Name)
	if sc.LatencyMS > 0 || sc.BandwidthMBps > 0 {
		opts = append(opts, wire.WithSimLink(wire.SimLink{
			Latency:     time.Duration(sc.LatencyMS) * time.Millisecond,
			BytesPerSec: int64(sc.BandwidthMBps) << 20,
		}))
	}
	cl, err := wire.DialContext(ctx, sc.Addr, opts...)
	if err != nil {
		return nil, err
	}
	return guard(cl), nil
}

// attachSource dials a gisd endpoint and imports every remote table into
// the global schema under its own name (prefixed with the source name on
// conflict).
func attachSource(ctx context.Context, e *core.Engine, def string) error {
	eq := strings.IndexByte(def, '=')
	if eq < 0 {
		return fmt.Errorf("bad -source %q: want name=addr", def)
	}
	name, addr := def[:eq], def[eq+1:]
	cl, err := wire.DialContext(ctx, addr, dialOpts(name)...)
	if err != nil {
		return err
	}
	// Metadata is fetched through the guard, not the raw client: with
	// -resilience it retries transient failures, so setup survives an
	// unreliable link.
	src := guard(cl)
	if err := e.Catalog().AddSource(src); err != nil {
		return err
	}
	tables, err := src.Tables(ctx)
	if err != nil {
		return err
	}
	for _, tbl := range tables {
		if err := ctx.Err(); err != nil {
			return err
		}
		info, err := src.TableInfo(ctx, tbl)
		if err != nil {
			return err
		}
		globalName := tbl
		if err := e.Catalog().DefineTable(globalName, info.Schema); err != nil {
			globalName = name + "_" + tbl
			if err := e.Catalog().DefineTable(globalName, info.Schema); err != nil {
				return err
			}
		}
		if err := e.Catalog().MapSimple(ctx, globalName, name, tbl); err != nil {
			return err
		}
		fmt.Printf("imported %s.%s as %s (%d rows)\n", name, tbl, globalName, info.RowCount)
	}
	return nil
}

// buildDemo assembles a two-store demo federation in process.
func buildDemo(ctx context.Context, e *core.Engine) error {
	ny := relstore.New("ny")
	custSchema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "region", Type: types.KindString},
	)
	if err := ny.CreateTable("customers", custSchema, 0); err != nil {
		return err
	}
	names := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	regionsList := []string{"east", "west"}
	var rows []types.Row
	for i, n := range names {
		rows = append(rows, types.Row{
			types.NewInt(int64(i + 1)),
			types.NewString(n),
			types.NewString(regionsList[i%2]),
		})
	}
	if _, err := ny.Insert(ctx, "customers", rows); err != nil {
		return err
	}
	eu := relstore.New("eu")
	ordSchema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
	)
	if err := eu.CreateTable("orders", ordSchema, 0); err != nil {
		return err
	}
	rows = nil
	for i := 0; i < 20; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i%len(names) + 1)),
			types.NewFloat(float64((i*37)%500) + 0.5),
		})
	}
	if _, err := eu.Insert(ctx, "orders", rows); err != nil {
		return err
	}
	cat := e.Catalog()
	if err := cat.AddSource(guard(ny)); err != nil {
		return err
	}
	if err := cat.AddSource(guard(eu)); err != nil {
		return err
	}
	if err := cat.DefineTable("customers", custSchema); err != nil {
		return err
	}
	if err := cat.MapSimple(ctx, "customers", "ny", "customers"); err != nil {
		return err
	}
	if err := cat.DefineTable("orders", ordSchema); err != nil {
		return err
	}
	return cat.MapSimple(ctx, "orders", "eu", "orders")
}

func repl(ctx context.Context, e *core.Engine) {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println(`gisql — type SQL, \tables, \sources, \explain <q>, \analyze <q>, \trace, \metrics, or \q`)
	var pending strings.Builder
	for {
		if pending.Len() == 0 {
			fmt.Print("gis> ")
		} else {
			fmt.Print("...> ")
		}
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") && pending.Len() == 0 {
			if !command(ctx, e, line) {
				return
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteByte(' ')
		if !strings.HasSuffix(line, ";") {
			continue
		}
		stmt := strings.TrimSuffix(strings.TrimSpace(pending.String()), ";")
		pending.Reset()
		if err := runStatement(ctx, e, stmt); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

// command handles backslash commands; returns false to quit.
func command(ctx context.Context, e *core.Engine, line string) bool {
	switch {
	case line == "\\q" || line == "\\quit":
		return false
	case line == "\\tables":
		for _, t := range e.Catalog().Tables() {
			tab, err := e.Catalog().Table(t)
			if err != nil {
				continue
			}
			fmt.Printf("%s %s (%d fragment(s))\n", t, tab.Schema, len(tab.Fragments))
		}
		for _, v := range e.Catalog().Views() {
			body, _ := e.Catalog().View(v)
			fmt.Printf("%s (view) = %s\n", v, body)
		}
	case line == "\\sources":
		for _, s := range e.Catalog().Sources() {
			src, err := e.Catalog().Source(s)
			if err != nil {
				continue
			}
			if g, ok := src.(*resilience.Guarded); ok {
				fmt.Printf("%s [%s] %s\n", s, src.Capabilities(), g.Breaker().Describe())
			} else {
				fmt.Printf("%s [%s]\n", s, src.Capabilities())
			}
		}
	case strings.HasPrefix(line, "\\explain "):
		out, err := e.Explain(ctx, strings.TrimPrefix(line, "\\explain "))
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			break
		}
		fmt.Print(out)
	case strings.HasPrefix(line, "\\analyze "):
		out, err := e.ExplainAnalyze(ctx, strings.TrimPrefix(line, "\\analyze "))
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			break
		}
		fmt.Print(out)
	case line == "\\trace":
		tr := e.TraceLast()
		if tr == nil {
			fmt.Println("no trace recorded yet (run a statement first; tracing must be on)")
			break
		}
		fmt.Print(tr.Tree())
	case line == "\\metrics":
		out, err := json.MarshalIndent(obs.Default().Snapshot(), "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			break
		}
		fmt.Println(string(out))
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", line)
	}
	return true
}

func runStatement(ctx context.Context, e *core.Engine, stmt string) error {
	res, err := e.Run(ctx, stmt)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	fmt.Printf("(%d row(s))\n", len(res.Rows))
	if res.Partial != nil {
		fmt.Fprintf(os.Stderr, "warning: %v\n", res.Partial)
		for _, o := range res.Partial.Failed() {
			fmt.Fprintf(os.Stderr, "  %s (%s): %v\n", o.Source, o.Op, o.Err)
		}
	}
	return nil
}
