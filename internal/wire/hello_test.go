package wire

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gis/internal/catalog"
	"gis/internal/docstore"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/obs"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// framesOut counts the requests a client named name has sent.
func framesOut(name string) *obs.Counter {
	return obs.Default().Counter("wire.client." + name + ".frames_out")
}

// tableInfoFrames asks cl for table's description and returns it with
// the number of frames the ask sent.
func tableInfoFrames(t *testing.T, cl *Client, table string) (*source.TableInfo, int64) {
	t.Helper()
	out := framesOut(cl.Name())
	before := out.Value()
	info, err := cl.TableInfo(ctx, table)
	if err != nil {
		t.Fatalf("TableInfo %s: %v", table, err)
	}
	return info, out.Value() - before
}

// countingInfo counts the descriptions its source is asked for.
type countingInfo struct {
	source.Source
	asked atomic.Int32
}

func (c *countingInfo) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	c.asked.Add(1)
	return c.Source.TableInfo(ctx, table)
}

// refusingInfo is a source that cannot describe one of its tables.
type refusingInfo struct {
	source.Source
	table string
}

func (r *refusingInfo) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	if table == r.table {
		return nil, fmt.Errorf("table %s is being rebuilt", table)
	}
	return r.Source.TableInfo(ctx, table)
}

// TestDialDescribesTables: the dial's hello reply carries the served
// tables' descriptions, so the first TableInfo of each costs no frame,
// and of several asked at once exactly one is answered so. Every later
// ask goes over the wire and sees the table as it is now, as does an
// ask after the client wrote the table, and one for a table the reply
// did not describe: created after the dial, past the client's frame
// bound, or one the source could not describe when the dial asked.
func TestDialDescribesTables(t *testing.T) {
	st, cl := startRelServer(t, 10, WithName("describe"))
	more := types.NewSchema(types.Column{Name: "k", Type: types.KindString})
	if err := st.CreateTable("later", more); err != nil {
		t.Fatal(err)
	}

	info, frames := tableInfoFrames(t, cl, "items")
	want, err := st.TableInfo(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if frames != 0 || !reflect.DeepEqual(info, want) {
		t.Errorf("first TableInfo of a described table: %+v in %d frames, want %+v in none", info, frames, want)
	}
	if _, err := st.Insert(ctx, "items", itemRow(100)); err != nil {
		t.Fatal(err)
	}
	if info, frames = tableInfoFrames(t, cl, "items"); frames != 1 || info.RowCount != 11 {
		t.Errorf("second TableInfo after an insert: %d rows in %d frames, want 11 rows in 1", info.RowCount, frames)
	}
	if info, frames = tableInfoFrames(t, cl, "later"); frames != 1 || info.Schema.Len() != 1 {
		t.Errorf("TableInfo of a table created after the dial: %+v in %d frames, want 1 column in 1 frame", info, frames)
	}

	t.Run("asked at once", func(t *testing.T) {
		const askers = 8
		src := &countingInfo{Source: itemsStore(t, 10)}
		srv, err := Serve(context.Background(), "127.0.0.1:0", src)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := DialContext(ctx, srv.Addr(), WithName("describe-once"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		src.asked.Store(0) // the dial's describe asked once
		var wg sync.WaitGroup
		for i := 0; i < askers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if info, err := cl.TableInfo(ctx, "items"); err != nil || info.RowCount != 10 {
					t.Errorf("TableInfo: %+v, %v", info, err)
				}
			}()
		}
		wg.Wait()
		if n := src.asked.Load(); n != askers-1 {
			t.Errorf("%d asks at once reached the source %d times, want %d: the description answers exactly one", askers, n, askers-1)
		}
	})

	t.Run("a write through the client", func(t *testing.T) {
		_, cl := startRelServer(t, 10, WithName("describe-write"))
		if _, err := cl.Insert(ctx, "items", itemRow(100)); err != nil {
			t.Fatal(err)
		}
		if info, frames := tableInfoFrames(t, cl, "items"); frames != 1 || info.RowCount != 11 {
			t.Errorf("TableInfo after the client's own insert: %d rows in %d frames, want 11 rows in 1", info.RowCount, frames)
		}
	})

	t.Run("past the frame bound", func(t *testing.T) {
		const n = 40
		st := relstore.New("many")
		for i := 0; i < n; i++ {
			if err := st.CreateTable(fmt.Sprintf("t%02d", i), more, 0); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := Serve(context.Background(), "127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := DialContext(ctx, srv.Addr(), WithName("describe-bound"), WithMaxFrameBytes(256))
		if err != nil {
			t.Fatalf("dial with more tables than a 256-byte frame holds: %v", err)
		}
		t.Cleanup(func() { cl.Close() })
		var described, asked int
		for i := 0; i < n; i++ {
			info, frames := tableInfoFrames(t, cl, fmt.Sprintf("t%02d", i))
			if info.Schema.Len() != 1 || !reflect.DeepEqual(info.KeyColumns, []int{0}) {
				t.Errorf("t%02d: %+v", i, info)
			}
			switch frames {
			case 0:
				described++
			case 1:
				asked++
			default:
				t.Errorf("t%02d: %d frames", i, frames)
			}
		}
		t.Logf("%d tables described in the hello reply, %d asked for", described, asked)
		if described == 0 || asked == 0 {
			t.Errorf("%d tables described and %d asked for; a 256-byte bound holds some but not all %d", described, asked, n)
		}
	})

	t.Run("a table the source cannot describe", func(t *testing.T) {
		st := itemsStore(t, 10)
		if err := st.CreateTable("broken", more); err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(context.Background(), "127.0.0.1:0", &refusingInfo{Source: st, table: "broken"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := DialContext(ctx, srv.Addr(), WithName("describe-refused"))
		if err != nil {
			t.Fatalf("dial to a source that cannot describe one table: %v", err)
		}
		t.Cleanup(func() { cl.Close() })
		cat := catalog.New()
		if err := cat.AddSource(cl); err != nil {
			t.Fatal(err)
		}
		for _, table := range []struct {
			name   string
			schema *types.Schema
		}{{"items", want.Schema}, {"broken", more}} {
			if err := cat.DefineTable(table.name, table.schema); err != nil {
				t.Fatal(err)
			}
		}
		if err := cat.MapSimple(ctx, "items", cl.Name(), "items"); err != nil {
			t.Errorf("mapping the described table: %v", err)
		}
		err = cat.MapSimple(ctx, "broken", cl.Name(), "broken")
		if err == nil || !strings.Contains(err.Error(), "being rebuilt") {
			t.Errorf("mapping the table the source cannot describe = %v, want its error", err)
		}
	})
}

// TestHandshakeSeedsRTT: the hello is the link's first round trip, so it
// seeds the RTT estimate Execute shrinks a shipped deadline by, and the
// link's rtt_seconds histogram, before any query or metadata call.
func TestHandshakeSeedsRTT(t *testing.T) {
	const latency = 5 * time.Millisecond
	hist := obs.Default().Histogram("wire.client.rtt-seed.rtt_seconds", obs.LatencyBuckets)
	before := hist.Count()
	_, cl := startRelServer(t, 1, WithName("rtt-seed"), WithSimLink(SimLink{Latency: latency}))
	if got := time.Duration(cl.rtt.Load()); got < 2*latency {
		t.Errorf("RTT estimate after the dial = %v, want at least %v", got, 2*latency)
	}
	if n := hist.Count() - before; n != 1 {
		t.Errorf("the dial added %d samples to rtt_seconds, want 1", n)
	}
}

// TestDialDescribesASortedPrefix: a served store of each kind with more
// tables than a 256-byte hello reply holds, made in shuffled order,
// describes the first of its names in sorted order on every dial, so
// the round trips set-up spends on the rest do not vary from run to
// run.
func TestDialDescribesASortedPrefix(t *testing.T) {
	const n, dials = 40, 5
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	schema := types.NewSchema(types.Column{Name: "k", Type: types.KindInt})
	stores := map[string]func(t *testing.T) source.Source{
		"relstore": func(t *testing.T) source.Source {
			st := relstore.New("many")
			for _, i := range order {
				if err := st.CreateTable(names[i], schema, 0); err != nil {
					t.Fatal(err)
				}
			}
			return st
		},
		"kvstore": func(t *testing.T) source.Source {
			st := kvstore.New("many")
			for _, i := range order {
				if err := st.CreateBucket(names[i], schema, 0); err != nil {
					t.Fatal(err)
				}
			}
			return st
		},
		"docstore": func(t *testing.T) source.Source {
			st := docstore.New("many")
			for _, i := range order {
				if err := st.CreateCollection(names[i], []docstore.FieldMap{{Column: schema.Columns[0], Path: "k"}}); err != nil {
					t.Fatal(err)
				}
			}
			return st
		},
		"filestore": func(t *testing.T) source.Source {
			st := filestore.New("many")
			for _, i := range order {
				if err := st.RegisterData(names[i], "k\n1\n", schema); err != nil {
					t.Fatal(err)
				}
			}
			return st
		},
	}
	for kind, build := range stores {
		t.Run(kind, func(t *testing.T) {
			srv, err := Serve(context.Background(), "127.0.0.1:0", build(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			var first []string
			for d := 0; d < dials; d++ {
				cl, err := DialContext(ctx, srv.Addr(), WithName("describe-prefix"), WithMaxFrameBytes(256))
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for name := range cl.described {
					got = append(got, name)
				}
				slices.Sort(got)
				cl.Close()
				if len(got) == 0 || len(got) == n || !slices.Equal(got, names[:len(got)]) {
					t.Fatalf("dial %d described %v: want a proper prefix of %v", d, got, names)
				}
				if d == 0 {
					first = got
				} else if !slices.Equal(got, first) {
					t.Fatalf("dial %d described %v, the first %v", d, got, first)
				}
			}
			t.Logf("%d of %d tables described on each of %d dials", len(first), n, dials)
		})
	}
}

// TestHelloReplyDescribesWithinBound: the describe stops before the next
// table would take the reply past the bound, and the reply it stops at
// decodes to the tables it kept.
func TestHelloReplyDescribesWithinBound(t *testing.T) {
	st := relstore.New("bounded")
	schema := types.NewSchema(types.Column{Name: "id", Type: types.KindInt}, types.Column{Name: "name", Type: types.KindString})
	for i := 0; i < 200; i++ {
		if err := st.CreateTable(fmt.Sprintf("table%03d", i), schema, 0); err != nil {
			t.Fatal(err)
		}
	}
	s := &Server{src: st}
	for _, limit := range []int{0, 8, 9, 40, 41, 100, 1000, 10000} {
		rep := helloReply{MaxRead: maxFrame, Caps: st.Capabilities()}
		rep.Tables = s.describe(ctx, &rep, limit)
		var e Encoder
		e.helloReply(&rep)
		if len(rep.Tables) > 0 && len(e.Bytes()) > limit {
			t.Errorf("limit %d: %d tables in %d bytes", limit, len(rep.Tables), len(e.Bytes()))
		}
		got, err := NewDecoder(e.Bytes()).helloReply()
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if len(got.Tables) != len(rep.Tables) {
			t.Errorf("limit %d: %d tables decoded of %d", limit, len(got.Tables), len(rep.Tables))
		}
		// Every table's entry is as long as the first's: one more would
		// not have fit.
		if n := len(rep.Tables); n > 0 && n < 200 {
			var next Encoder
			next.describedTable(rep.Tables[0])
			if len(e.Bytes())+len(next.Bytes()) <= limit {
				t.Errorf("limit %d: stopped at %d tables in %d bytes, another %d-byte table fits", limit, n, len(e.Bytes()), len(next.Bytes()))
			}
		}
	}
}
