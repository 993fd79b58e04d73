// Command gisd serves a component information system over the wire
// protocol so a mediator on another machine (or process) can federate
// it. It can host a relational store loaded from CSV files, a key-value
// bucket, or a raw CSV file source.
//
// Usage:
//
//	gisd -listen :7070 -name ny \
//	     -table customers=./customers.csv:id:int,name:string,region:string \
//	     -table orders=./orders.csv:oid:int,cust_id:int,amount:float
//
// Each -table flag is name=path:col:type[,col:type...]; the first column
// is the primary key. The store is a fully-capable relational engine
// (filters, projection, aggregation, sort, limit, transactions).
//
// With -debug-addr the daemon also serves a runtime introspection
// endpoint: /metrics (JSON metrics snapshot), /sessions (in-flight
// sub-queries), /slow (sub-queries slower than -slow-query, retained
// ring-buffer style), and /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gis/internal/admission"
	"gis/internal/faults"
	"gis/internal/filestore"
	"gis/internal/obs"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/types"
	"gis/internal/wire"
)

// tableFlag accumulates -table definitions.
type tableFlag []string

func (t *tableFlag) String() string { return strings.Join(*t, "; ") }

func (t *tableFlag) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7070", "address to serve on")
		name      = flag.String("name", "gisd", "source name reported to mediators")
		debugAddr = flag.String("debug-addr", "", "serve metrics/pprof/sessions on this address (e.g. 127.0.0.1:6060)")
		slowQuery = flag.Duration("slow-query", 250*time.Millisecond, "retain sub-queries slower than this on /slow")
		faultPlan = flag.String("fault-plan", "", `seeded fault-injection plan, e.g. "seed=7;*:err=0.05,stall=50ms,stallp=0.1"`)
		queryLog  = flag.String("query-log", "", "append structured JSON query-log records to this file")
		qlSample  = flag.Float64("query-log-sample", 0, "fraction of fast sub-queries to log (slow ones are always logged)")

		maxInflight  = flag.Int("max-inflight", 0, "admission: max concurrently executing sub-queries (0 = unlimited)")
		tenantRate   = flag.Float64("tenant-rate", 0, "admission: per-tenant sustained sub-queries/sec (0 = unlimited)")
		tenantQuota  = flag.Int64("tenant-quota", 0, "admission: per-tenant result-stream memory quota in bytes (0 = unlimited)")
		maxFrame     = flag.Int("max-frame-bytes", 0, "reject wire frames larger than this (0 = protocol default 16MiB)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM, let in-flight sub-queries finish up to this long before closing")

		tables tableFlag
	)
	flag.Var(&tables, "table", "table definition: name=path:col:type[,col:type...] (repeatable)")
	flag.Parse()

	if len(tables) == 0 {
		fmt.Fprintln(os.Stderr, "gisd: at least one -table is required")
		flag.Usage()
		os.Exit(2)
	}

	store := relstore.New(*name)
	// Bounded startup loop over the -table flags; no query context exists
	// yet and the in-process store's txns cannot block on a wire.
	for _, def := range tables {
		//lint:ignore ctxflow bounded CLI startup loop before any server context exists; loadTable hits only the local store
		if err := loadTable(store, def); err != nil {
			log.Fatalf("gisd: %v", err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var srvOpts []wire.ServerOption
	if *faultPlan != "" {
		fp, err := faults.ParsePlan(*faultPlan)
		if err != nil {
			log.Fatalf("gisd: -fault-plan: %v", err)
		}
		srvOpts = append(srvOpts, wire.WithServerFaults(fp))
		log.Printf("gisd: fault injection armed: %s", *faultPlan)
	}
	if *maxInflight > 0 || *tenantRate > 0 || *tenantQuota > 0 {
		ctrl := admission.New(admission.Config{
			MaxInFlight: *maxInflight,
			TenantRate:  *tenantRate,
			MemQuota:    *tenantQuota,
		})
		srvOpts = append(srvOpts, wire.WithAdmission(ctrl))
		log.Printf("gisd: admission control armed: max-inflight=%d tenant-rate=%.1f tenant-quota=%d",
			*maxInflight, *tenantRate, *tenantQuota)
	}
	if *maxFrame > 0 {
		srvOpts = append(srvOpts, wire.WithServerMaxFrameBytes(*maxFrame))
	}
	srv, err := wire.Serve(ctx, *listen, store, srvOpts...)
	if err != nil {
		log.Fatalf("gisd: %v", err)
	}
	srv.Queries.SetThreshold(*slowQuery)
	if *queryLog != "" {
		f, err := os.OpenFile(*queryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("gisd: -query-log: %v", err)
		}
		defer f.Close()
		srv.Queries.SetStructured(obs.NewStructuredLog(f, *qlSample, sql.Fingerprint))
	}
	log.Printf("gisd: serving source %q on %s", *name, srv.Addr())

	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: obs.Handler(obs.Default(), srv.Queries)}
		go func() {
			log.Printf("gisd: debug endpoint on http://%s/", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("gisd: debug endpoint: %v", err)
			}
		}()
		defer dbg.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful drain: stop accepting, let in-flight sub-queries finish
	// up to -drain-timeout, then close whatever is left.
	log.Printf("gisd: draining (up to %s)", *drainTimeout)
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("gisd: shutdown: %v", err)
	}
	log.Printf("gisd: bye")
}

// loadTable parses one -table definition and loads its CSV data: all of
// it, or an error that names the record it stopped at.
func loadTable(store *relstore.Store, def string) error {
	eq := strings.IndexByte(def, '=')
	if eq < 0 {
		return fmt.Errorf("bad -table %q: missing '='", def)
	}
	name := def[:eq]
	rest := def[eq+1:]
	colon := strings.IndexByte(rest, ':')
	if colon < 0 {
		return fmt.Errorf("bad -table %q: missing column spec", def)
	}
	path := rest[:colon]
	var cols []types.Column
	for _, spec := range strings.Split(rest[colon+1:], ",") {
		parts := strings.SplitN(spec, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad column spec %q (want name:type)", spec)
		}
		kind, ok := types.KindFromName(parts[1])
		if !ok {
			return fmt.Errorf("unknown type %q in column spec %q", parts[1], spec)
		}
		cols = append(cols, types.Column{Name: parts[0], Type: kind})
	}
	schema := &types.Schema{Columns: cols}
	if err := store.CreateTable(name, schema, 0); err != nil {
		return err
	}
	// One scan of the file through the scan-only wrapper: the typed rows
	// a mediator would read from it, or the error it would get.
	files := filestore.New(path)
	if err := files.RegisterFile(name, path, schema); err != nil {
		return err
	}
	it, err := files.Execute(context.Background(), source.NewScan(name))
	if err != nil {
		return err
	}
	rows, err := source.Drain(it)
	if err != nil {
		return err
	}
	if _, err := store.Insert(context.Background(), name, rows); err != nil {
		return err
	}
	log.Printf("gisd: loaded %s (%d rows) from %s", name, len(rows), path)
	return nil
}
