package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Bottom-up interprocedural function summaries. Each function body in
// the call graph gets a Summary of the behaviors the flow analyzers
// care about: whether it (transitively) performs wire I/O, consults its
// context, receives on channels, joins a WaitGroup, parks on either,
// leaves a receiver's mutex locked, returns a freshly opened iterator,
// hand-assembles SQL text, or forwards a string parameter into a SQL
// parse/execute sink — plus, per span/iterator parameter, what the
// callee does with the value (ends it, absorbs ownership, or only reads
// it).
//
// Summaries are computed over Tarjan SCCs in reverse topological order
// (callees first), iterating within each component until a fixpoint.
// Every fact is monotone under the join: booleans only become true and
// parameter fates only climb the FateEnds < FateOwns < FateReads chain,
// so the iteration terminates even for mutual recursion.
//
// The conservative interface resolution in the call graph (method-name
// match) is deliberately NOT trusted for behavior propagation: a
// name-matched target set is an over-approximation that would smear one
// implementation's I/O onto every caller of the method name. Interface
// call sites instead fall back to leaf classification (a bodyless
// context-taking call into an I/O-layer package is wire I/O) and to the
// analyzers' pre-existing pessimistic defaults.

// ParamFate says what a callee does with a span/iterator parameter.
// The order is a lattice: facts only climb during the SCC fixpoint.
type ParamFate uint8

const (
	// FateUnknown: the parameter is not tracked at this position.
	FateUnknown ParamFate = iota
	// FateEnds: the callee tears the value down (End/Close) on some path.
	FateEnds
	// FateOwns: the callee absorbs ownership — stores, returns, captures,
	// or forwards the value to an owner (or never touches it at all).
	FateOwns
	// FateReads: the callee only reads the value; the teardown obligation
	// stays with the caller.
	FateReads
)

// Summary is the interprocedural abstract of one function body.
type Summary struct {
	// DoesWireIO: the function may block on network/source I/O — a call
	// into package net (Close excepted: teardown is prompt) or a bodyless
	// context-taking call into an I/O-layer module package, directly or
	// transitively through resolved concrete callees.
	DoesWireIO bool
	// IOVia names the leaf operation DoesWireIO was derived from.
	IOVia string
	// ConsultsCtx: the function checks context liveness (ctx.Err or
	// ctx.Done), directly or through every-path concrete callees.
	ConsultsCtx bool
	// HasChanRecv: the body (transitively) receives from a channel.
	HasChanRecv bool
	// JoinsWaitGroup: the body (transitively) calls WaitGroup.Wait or
	// Done — either side of the join protocol counts as participation.
	JoinsWaitGroup bool
	// ReturnsFreshIter: some return statement hands out an iterator the
	// function created (as opposed to a borrowed parameter or field).
	ReturnsFreshIter bool
	// TaintedSQL: the function returns a string assembled by
	// concatenating/formatting SQL keyword literals with runtime values.
	TaintedSQL bool

	// SpanFate / IterFate map parameter index → fate for *obs.Span and
	// source.RowIter parameters respectively.
	SpanFate map[int]ParamFate
	IterFate map[int]ParamFate
	// SQLSinkParams marks string parameter indices the function forwards
	// into a SQL parse/execute sink (directly or transitively).
	SQLSinkParams map[int]bool
	// LocksRecvPaths / UnlocksRecvPaths: mutex paths relative to the
	// receiver (".mu", ".s.mu") the method leaves locked on return /
	// releases by return (deferred unlocks included — they have run by
	// the time the caller resumes). This is how the held-lock walker sees
	// through ensureLocked-style helpers that acquire for their caller.
	LocksRecvPaths   map[string]bool
	UnlocksRecvPaths map[string]bool
	// BlocksOnChan / BlocksOnWG: a channel send or receive outside a
	// select-with-default, or a WaitGroup.Wait, is reachable on the
	// calling goroutine — how lockheld sees a park hidden behind a helper
	// extraction.
	BlocksOnChan bool
	BlocksOnWG   bool
}

func newSummary() *Summary {
	return &Summary{
		SpanFate:         make(map[int]ParamFate),
		IterFate:         make(map[int]ParamFate),
		SQLSinkParams:    make(map[int]bool),
		LocksRecvPaths:   make(map[string]bool),
		UnlocksRecvPaths: make(map[string]bool),
	}
}

func (s *Summary) setWireIO(via string) {
	s.DoesWireIO = true
	if s.IOVia == "" {
		s.IOVia = via
	}
}

// join merges o into s pointwise (monotone) and reports change.
func (s *Summary) join(o *Summary) bool {
	changed := false
	orb := func(dst *bool, v bool) {
		if v && !*dst {
			*dst = true
			changed = true
		}
	}
	orb(&s.DoesWireIO, o.DoesWireIO)
	if s.IOVia == "" && o.IOVia != "" {
		s.IOVia = o.IOVia
	}
	orb(&s.ConsultsCtx, o.ConsultsCtx)
	orb(&s.HasChanRecv, o.HasChanRecv)
	orb(&s.JoinsWaitGroup, o.JoinsWaitGroup)
	orb(&s.ReturnsFreshIter, o.ReturnsFreshIter)
	orb(&s.TaintedSQL, o.TaintedSQL)
	for i, f := range o.SpanFate {
		if f > s.SpanFate[i] {
			s.SpanFate[i] = f
			changed = true
		}
	}
	for i, f := range o.IterFate {
		if f > s.IterFate[i] {
			s.IterFate[i] = f
			changed = true
		}
	}
	for i, b := range o.SQLSinkParams {
		if b && !s.SQLSinkParams[i] {
			s.SQLSinkParams[i] = true
			changed = true
		}
	}
	for p, b := range o.LocksRecvPaths {
		if b && !s.LocksRecvPaths[p] {
			s.LocksRecvPaths[p] = true
			changed = true
		}
	}
	for p, b := range o.UnlocksRecvPaths {
		if b && !s.UnlocksRecvPaths[p] {
			s.UnlocksRecvPaths[p] = true
			changed = true
		}
	}
	orb(&s.BlocksOnChan, o.BlocksOnChan)
	orb(&s.BlocksOnWG, o.BlocksOnWG)
	return changed
}

// Interproc is the shared interprocedural artifact of one Run: the
// module-wide call graph plus the summary of every function body.
type Interproc struct {
	Graph *CallGraph
	// Locks is the module-wide lock-order graph (see lockordermodel.go),
	// read by the lockorder analyzer.
	Locks *LockOrderModel

	loader    *Loader
	summaries map[*FuncNode]*Summary
	spanType  *types.Named
	iterIface *types.Interface
}

// BuildInterproc builds the call graph over every loaded package and
// computes summaries bottom-up over its SCCs.
func BuildInterproc(l *Loader) *Interproc {
	ip := &Interproc{
		Graph:     BuildCallGraph(l),
		loader:    l,
		summaries: make(map[*FuncNode]*Summary),
	}
	if obs := l.Dep(l.ModulePath + "/internal/obs"); obs != nil {
		if tn, ok := obs.Scope().Lookup("Span").(*types.TypeName); ok {
			ip.spanType, _ = tn.Type().(*types.Named)
		}
	}
	if src := l.Dep(l.ModulePath + "/internal/source"); src != nil {
		if tn, ok := src.Scope().Lookup("RowIter").(*types.TypeName); ok {
			ip.iterIface, _ = tn.Type().Underlying().(*types.Interface)
		}
	}
	for _, comp := range ip.Graph.SCCs() {
		for _, n := range comp {
			ip.summaries[n] = newSummary()
		}
		// Within the component, iterate to a fixpoint. All facts are
		// monotone under join, so this terminates.
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if ip.summaries[n].join(ip.scan(n)) {
					changed = true
				}
			}
		}
	}
	ip.Locks = BuildLockOrderModel(ip)
	return ip
}

// SummaryOf returns the summary of a graph node.
func (ip *Interproc) SummaryOf(n *FuncNode) *Summary { return ip.summaries[n] }

// SummaryFor returns the summary of a declared function, nil when it has
// no analyzable body in the module.
func (ip *Interproc) SummaryFor(fn *types.Func) *Summary {
	if n := ip.Graph.NodeOf(fn); n != nil {
		return ip.summaries[n]
	}
	return nil
}

func (ip *Interproc) inModule(p *types.Package) bool {
	if p == nil {
		return false
	}
	return p.Path() == ip.loader.ModulePath || strings.HasPrefix(p.Path(), ip.loader.ModulePath+"/")
}

// nodeSig returns the go/types signature of a graph node.
func nodeSig(n *FuncNode) *types.Signature {
	if n.Obj != nil {
		sig, _ := n.Obj.Type().(*types.Signature)
		return sig
	}
	if t := n.Pkg.TypeOf(n.Lit); t != nil {
		sig, _ := t.(*types.Signature)
		return sig
	}
	return nil
}

// scan computes one monotone approximation of n's summary from its body
// and the current summaries of its callees.
func (ip *Interproc) scan(n *FuncNode) *Summary {
	s := newSummary()
	sig := nodeSig(n)

	// Call-site facts: leaves plus transitive propagation.
	for _, site := range n.Sites {
		fn := site.Callee
		if fn != nil && fn.Pkg() != nil && !site.InGo {
			switch fn.Pkg().Path() {
			case "sync":
				if (fn.Name() == "Wait" || fn.Name() == "Done") && isWaitGroupMethod(fn) {
					s.JoinsWaitGroup = true
					if fn.Name() == "Wait" {
						s.BlocksOnWG = true
					}
				}
			case "net":
				// Everything in net may touch the network; teardown
				// (Close) is prompt and exempt.
				if fn.Name() != "Close" {
					s.setWireIO("net." + fn.Name())
				}
			case "context":
				if fn.Name() == "Err" || fn.Name() == "Done" {
					s.ConsultsCtx = true
				}
			}
			// A context-taking call into an I/O-layer module package with
			// no analyzable body (an interface method, typically a Source
			// facet) is the canonical RPC-shaped leaf.
			if ip.inModule(fn.Pkg()) && ioLayerPath(fn.Pkg().Path()) &&
				funcHasCtxParam(fn) && ip.Graph.NodeOf(fn) == nil {
				s.setWireIO(fn.Name())
			}
		}
		if site.Interface {
			continue // name-matched targets are too coarse to trust
		}
		for _, t := range site.Targets {
			ts := ip.summaries[t]
			if ts == nil {
				continue
			}
			if site.InGo {
				continue // spawned work blocks its own goroutine
			}
			if ts.DoesWireIO {
				s.setWireIO(ts.IOVia)
			}
			if ts.ConsultsCtx {
				s.ConsultsCtx = true
			}
			if ts.HasChanRecv {
				s.HasChanRecv = true
			}
			if ts.JoinsWaitGroup {
				s.JoinsWaitGroup = true
			}
			if ts.BlocksOnChan {
				s.BlocksOnChan = true
			}
			if ts.BlocksOnWG {
				s.BlocksOnWG = true
			}
		}
	}

	// Direct syntactic facts.
	walkNode(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SendStmt:
			if !inSelectWithDefault(n.Pkg, m) {
				s.BlocksOnChan = true
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				s.HasChanRecv = true
				if !inSelectWithDefault(n.Pkg, m) {
					s.BlocksOnChan = true
				}
			}
		case *ast.RangeStmt:
			if t := n.Pkg.TypeOf(m.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					s.HasChanRecv = true
					s.BlocksOnChan = true
				}
			}
		}
		return true
	}, nil)

	// Fresh-iterator returns.
	if ip.iterIface != nil && sig != nil && sigReturnsIter(ip, sig) {
		ip.scanIterReturns(n, s)
	}

	// Per-parameter fates and SQL-sink forwarding.
	if sig != nil {
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			pv := params.At(i)
			if pv == nil {
				continue
			}
			switch {
			case ip.spanType != nil && isSpanPtr(pv.Type(), ip.spanType):
				s.SpanFate[i] = ip.paramFate(n, pv, paramSpan)
			case ip.iterIface != nil && implementsIter(pv.Type(), ip.iterIface):
				s.IterFate[i] = ip.paramFate(n, pv, paramIter)
			}
			if isStringType(pv.Type()) && ip.paramReachesSQLSink(n, pv) {
				s.SQLSinkParams[i] = true
			}
		}
	}

	// Receiver-relative lock balance (the held-lock walker's view through
	// lock helpers).
	ip.scanLockPaths(n, s)

	// Tainted SQL returns.
	if sig != nil && sigReturnsString(sig) {
		taint := ip.sqlTaintedVars(n.Pkg, n.Body)
		walkNode(n.Body, func(m ast.Node) bool {
			ret, ok := m.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, r := range ret.Results {
				if isStringType(n.Pkg.TypeOf(r)) && ip.taintedSQLExpr(n.Pkg, r, taint) {
					s.TaintedSQL = true
				}
			}
			return true
		}, nil)
	}
	return s
}

// ---------------------------------------------------------------------
// Fresh-iterator returns

func sigReturnsIter(ip *Interproc, sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if implementsIter(res.At(i).Type(), ip.iterIface) {
			return true
		}
	}
	return false
}

func sigReturnsString(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isStringType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

func (ip *Interproc) scanIterReturns(n *FuncNode, s *Summary) {
	walkNode(n.Body, func(m ast.Node) bool {
		ret, ok := m.(*ast.ReturnStmt)
		if !ok || s.ReturnsFreshIter {
			return !s.ReturnsFreshIter
		}
		if len(ret.Results) == 0 {
			// Naked return of a named iterator result: untracked, so
			// pessimistically fresh.
			s.ReturnsFreshIter = true
			return false
		}
		for _, r := range ret.Results {
			t := n.Pkg.TypeOf(r)
			if tup, ok := t.(*types.Tuple); ok {
				for i := 0; i < tup.Len(); i++ {
					if implementsIter(tup.At(i).Type(), ip.iterIface) && ip.freshIterExpr(n, r) {
						s.ReturnsFreshIter = true
					}
				}
			} else if implementsIter(t, ip.iterIface) && ip.freshIterExpr(n, r) {
				s.ReturnsFreshIter = true
			}
		}
		return true
	}, nil)
}

// freshIterExpr reports whether a returned iterator expression hands out
// a value this function created (fresh) rather than borrowed state (a
// parameter, the receiver, a field, or a callee known to return only
// borrowed iterators).
func (ip *Interproc) freshIterExpr(n *FuncNode, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := n.Pkg.ObjectOf(e).(*types.Var); ok && isSigParam(nodeSig(n), v) {
			return false
		}
		return true
	case *ast.SelectorExpr:
		// A field (or method value) off an existing value: borrowed.
		return false
	case *ast.CallExpr:
		site := ip.Graph.SiteOf(e)
		if site == nil || site.Interface || len(site.Targets) == 0 {
			return true
		}
		for _, t := range site.Targets {
			if ts := ip.summaries[t]; ts == nil || ts.ReturnsFreshIter {
				return true
			}
		}
		return false
	}
	return true
}

// isSigParam reports whether v is a parameter or the receiver of sig.
func isSigParam(sig *types.Signature, v *types.Var) bool {
	if sig == nil {
		return false
	}
	if sig.Recv() == v && v != nil {
		return true
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == v {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Parameter fates

type paramKind uint8

const (
	paramSpan paramKind = iota
	paramIter
)

func (k paramKind) teardown() string {
	if k == paramSpan {
		return "End"
	}
	return "Close"
}

type useClass uint8

const (
	useRead useClass = iota
	useEnds
	useOwns
)

// paramFate classifies every use of pv in n's body and folds the uses
// into a fate: any ownership-moving use wins (the callee absorbed the
// value), else a teardown use, else read-only; an unused parameter is
// treated as absorbed (there is nothing left for the caller to do that
// the callee promised).
func (ip *Interproc) paramFate(n *FuncNode, pv *types.Var, kind paramKind) ParamFate {
	var reads, ends, owns int
	walkNode(n.Body, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || n.Pkg.ObjectOf(id) != pv {
			return true
		}
		switch ip.classifyUse(n, id, kind) {
		case useRead:
			reads++
		case useEnds:
			ends++
		case useOwns:
			owns++
		}
		return true
	}, func(fl *ast.FuncLit) {
		// Capture by a nested literal: ownership escapes to the closure.
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && n.Pkg.Info.Uses[id] == pv {
				owns++
			}
			return true
		})
	})
	switch {
	case owns > 0:
		return FateOwns
	case ends > 0:
		return FateEnds
	case reads > 0:
		return FateReads
	}
	return FateOwns
}

// classifyUse decides what one identifier use of a tracked parameter
// does with the value.
func (ip *Interproc) classifyUse(n *FuncNode, id *ast.Ident, kind paramKind) useClass {
	var expr ast.Expr = id
	parent := n.Pkg.Parent(id)
	for {
		if p, ok := parent.(*ast.ParenExpr); ok {
			expr, parent = p, n.Pkg.Parent(p)
			continue
		}
		if p, ok := parent.(*ast.StarExpr); ok {
			expr, parent = p, n.Pkg.Parent(p)
			continue
		}
		break
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X != expr {
			return useRead
		}
		if call, ok := n.Pkg.Parent(p).(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
			if p.Sel.Name == kind.teardown() {
				return useEnds
			}
			return useRead // Next, SetAttr, ... keep the obligation shape
		}
		if _, isMethod := n.Pkg.ObjectOf(p.Sel).(*types.Func); isMethod {
			return useOwns // method value extraction: escapes
		}
		return useRead // field read
	case *ast.BinaryExpr:
		return useRead // nil comparisons and the like
	case *ast.CallExpr:
		pos := -1
		for i, a := range p.Args {
			if a == expr {
				pos = i
				break
			}
		}
		if pos < 0 {
			return useOwns
		}
		return ip.argFateClass(ip.Graph.SiteOf(p), pos, kind)
	}
	// Assignment, return, composite literal, &x, send, index: moved.
	return useOwns
}

// argFateClass folds the fates every resolved concrete target assigns
// to argument position pos. Unresolved, interface-dispatched, mixed, or
// unknown-fate calls classify as ownership transfer — the analyzers'
// pre-interprocedural behavior.
func (ip *Interproc) argFateClass(site *CallSite, pos int, kind paramKind) useClass {
	if site == nil || site.Interface || len(site.Targets) == 0 {
		return useOwns
	}
	agreed := FateUnknown
	for _, t := range site.Targets {
		ts := ip.summaries[t]
		if ts == nil {
			return useOwns
		}
		tsig := nodeSig(t)
		if tsig == nil || pos >= tsig.Params().Len() {
			return useOwns // variadic tail or signature mismatch
		}
		var f ParamFate
		if kind == paramSpan {
			f = ts.SpanFate[pos]
		} else {
			f = ts.IterFate[pos]
		}
		if f == FateUnknown {
			return useOwns
		}
		if agreed == FateUnknown {
			agreed = f
		} else if f != agreed {
			return useOwns
		}
	}
	switch agreed {
	case FateReads:
		return useRead
	case FateEnds:
		return useEnds
	default:
		return useOwns
	}
}

// ArgKeepsObligation reports whether passing a tracked span (kind
// spanArg=true) or iterator as argument pos of call leaves the teardown
// obligation with the caller: every resolved concrete target only reads
// the value. This is how a helper extraction stops discharging the
// caller's span/iterator obligation.
func (ip *Interproc) ArgKeepsObligation(call *ast.CallExpr, pos int, spanArg bool) bool {
	kind := paramIter
	if spanArg {
		kind = paramSpan
	}
	return ip.argFateClass(ip.Graph.SiteOf(call), pos, kind) == useRead
}

// ---------------------------------------------------------------------
// Blocking / consulting call classification for the flow analyzers

// WireIOCall reports whether call may block on wire/source I/O per the
// resolved concrete targets' summaries, returning the target and leaf
// names for the diagnostic.
func (ip *Interproc) WireIOCall(call *ast.CallExpr) (name, via string, ok bool) {
	site := ip.Graph.SiteOf(call)
	if site == nil || site.Interface {
		return "", "", false
	}
	for _, t := range site.Targets {
		if ts := ip.summaries[t]; ts != nil && ts.DoesWireIO {
			return t.Name, ts.IOVia, true
		}
	}
	return "", "", false
}

// ConsultingCall reports whether call certainly consults context
// liveness: every resolved concrete target's summary says ConsultsCtx.
func (ip *Interproc) ConsultingCall(call *ast.CallExpr) bool {
	site := ip.Graph.SiteOf(call)
	if site == nil || site.Interface || len(site.Targets) == 0 {
		return false
	}
	for _, t := range site.Targets {
		ts := ip.summaries[t]
		if ts == nil || !ts.ConsultsCtx {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// SQL taint

// sqlSinkPositions returns the string-argument positions of call that
// reach a SQL parse/execute boundary, plus a display name for it:
// the root sinks (internal/sql parsers, Engine query/exec surface,
// Catalog.DefineView) and any resolved concrete target that forwards a
// parameter into one.
func (ip *Interproc) sqlSinkPositions(pkg *Package, call *ast.CallExpr) ([]int, string) {
	posSet := make(map[int]bool)
	name := ""
	fn := calleeFunc(pkg, call)
	if fn != nil {
		for _, p := range ip.rootSinkPositions(fn) {
			posSet[p] = true
		}
		if len(posSet) > 0 {
			name = fn.Name()
		}
	}
	if site := ip.Graph.SiteOf(call); site != nil && !site.Interface {
		for _, t := range site.Targets {
			ts := ip.summaries[t]
			if ts == nil {
				continue
			}
			for p := range ts.SQLSinkParams {
				posSet[p] = true
				if name == "" {
					name = t.Name
				}
			}
		}
	}
	if len(posSet) == 0 {
		return nil, ""
	}
	out := make([]int, 0, len(posSet))
	for p := range posSet {
		out = append(out, p)
	}
	return out, name
}

// rootSinkPositions lists the argument positions of fn that are parsed
// or executed as SQL text — the trust boundary of the sqlship analyzer.
func (ip *Interproc) rootSinkPositions(fn *types.Func) []int {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	mp := ip.loader.ModulePath
	switch fn.Pkg().Path() {
	case mp + "/internal/sql":
		switch fn.Name() {
		case "Parse", "ParseSelect", "ParseExpr":
			return []int{0}
		}
	case mp + "/internal/core":
		if recvTypeName(fn) == "Engine" {
			switch fn.Name() {
			case "Query", "QueryIter", "Run", "Exec", "Explain", "ExplainAnalyze", "CreateView":
				return []int{1}
			}
		}
	case mp + "/internal/catalog":
		if recvTypeName(fn) == "Catalog" && fn.Name() == "DefineView" {
			return []int{1}
		}
	}
	return nil
}

// scanLockPaths computes the receiver-relative lock balance of one
// method body: every sync mutex reachable from the receiver that the
// body locks without a matching unlock is left locked for the caller
// (ensureLocked-style), and vice versa (release-style). Helper calls on
// receiver-rooted paths contribute their own summaries, so the balance
// is transitive through the SCC fixpoint. A path that is both locked
// and unlocked in the same body is balanced and contributes nothing.
func (ip *Interproc) scanLockPaths(n *FuncNode, s *Summary) {
	sig := nodeSig(n)
	if sig == nil || sig.Recv() == nil {
		return
	}
	recv := sig.Recv()
	if recv.Name() == "" || recv.Name() == "_" {
		return
	}
	relOf := func(ref lockRef) (string, bool) {
		if ref.root != recv {
			return "", false
		}
		return strings.TrimPrefix(ref.path, recv.Name()), true
	}
	lockSet := make(map[string]bool)
	unlockSet := make(map[string]bool)
	walkNode(n.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		isDefer := isDeferredCall(n.Pkg, call)
		if op, ok := syncLockOp(n.Pkg, call); ok {
			rel, ok := relOf(op.ref)
			if !ok {
				return true
			}
			switch {
			case !op.acquires():
				unlockSet[rel] = true
			case !isDefer:
				lockSet[rel] = true
			}
			return true
		}
		bal, ok := ip.calleeLockBalance(n.Pkg, call)
		if !ok {
			return true
		}
		baseRel, ok := relOf(bal.base)
		if !ok {
			return true
		}
		for _, p := range bal.unlocks {
			unlockSet[baseRel+p] = true
		}
		if !isDefer {
			for p := range bal.locks {
				lockSet[baseRel+p] = true
			}
		}
		return true
	}, nil)
	for p := range lockSet {
		if !unlockSet[p] {
			s.LocksRecvPaths[p] = true
		}
	}
	for p := range unlockSet {
		if !lockSet[p] {
			s.UnlocksRecvPaths[p] = true
		}
	}
}

// paramReachesSQLSink reports whether pv is forwarded as a sink-position
// argument anywhere lexically inside n — including nested function
// literals, which capture the parameter (queryOnce-style helpers return
// a closure that executes the query later).
func (ip *Interproc) paramReachesSQLSink(n *FuncNode, pv *types.Var) bool {
	found := false
	ast.Inspect(n.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		positions, _ := ip.sqlSinkPositions(n.Pkg, call)
		for _, p := range positions {
			if p < len(call.Args) {
				if id, ok := ast.Unparen(call.Args[p]).(*ast.Ident); ok && n.Pkg.ObjectOf(id) == pv {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// sqlTaintedVars computes, flow-insensitively, the local string
// variables of body that may hold hand-assembled SQL text. Iterates to
// a local fixpoint so taint flows through var-to-var copies.
func (ip *Interproc) sqlTaintedVars(pkg *Package, body *ast.BlockStmt) map[*types.Var]bool {
	taint := make(map[*types.Var]bool)
	bind := func(id *ast.Ident, rhs ast.Expr) bool {
		v, ok := pkg.ObjectOf(id).(*types.Var)
		if !ok || taint[v] || !isStringType(v.Type()) {
			return false
		}
		if ip.taintedSQLExpr(pkg, rhs, taint) {
			taint[v] = true
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		walkNode(body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				if len(m.Lhs) != len(m.Rhs) {
					return true
				}
				for i, lhs := range m.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && bind(id, m.Rhs[i]) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range m.Names {
					if i < len(m.Values) && bind(name, m.Values[i]) {
						changed = true
					}
				}
			}
			return true
		}, nil)
	}
	return taint
}

// taintedSQLExpr reports whether e may produce hand-assembled SQL text:
// a concatenation or fmt.Sprint* mixing SQL-keyword string constants
// with runtime values, a tainted local variable, or a call to a
// function summarized as returning tainted SQL. Compile-time constants
// and the internal/sql + internal/plan builders are trusted.
func (ip *Interproc) taintedSQLExpr(pkg *Package, e ast.Expr, taint map[*types.Var]bool) bool {
	e = ast.Unparen(e)
	if isConstExpr(pkg, e) {
		return false
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return false
		}
		var ops []ast.Expr
		flattenConcat(e, &ops)
		return ip.mixesSQLWithRuntime(pkg, ops, taint)
	case *ast.CallExpr:
		if fn := calleeFunc(pkg, e); fn != nil && fn.Pkg() != nil {
			if fn.Pkg().Path() == "fmt" {
				switch fn.Name() {
				case "Sprintf", "Sprint", "Sprintln", "Appendf":
					return ip.mixesSQLWithRuntime(pkg, e.Args, taint)
				}
			}
			if ip.trustedSQLBuilder(fn) {
				return false
			}
		}
		if site := ip.Graph.SiteOf(e); site != nil && !site.Interface {
			for _, t := range site.Targets {
				if ts := ip.summaries[t]; ts != nil && ts.TaintedSQL {
					return true
				}
			}
		}
		return false
	case *ast.Ident:
		if v, ok := pkg.ObjectOf(e).(*types.Var); ok {
			return taint[v]
		}
	}
	return false
}

// mixesSQLWithRuntime is the taint trigger: at least one operand is a
// SQL-keyword string constant and at least one is a runtime value that
// did not come from a trusted builder.
func (ip *Interproc) mixesSQLWithRuntime(pkg *Package, ops []ast.Expr, taint map[*types.Var]bool) bool {
	hasSQL, hasRuntime := false, false
	for _, op := range ops {
		op = ast.Unparen(op)
		if ip.taintedSQLExpr(pkg, op, taint) {
			return true
		}
		if c, ok := constStringOf(pkg, op); ok {
			if looksLikeSQL(c) {
				hasSQL = true
			}
			continue
		}
		if isConstExpr(pkg, op) {
			continue // non-string constant
		}
		if call, ok := op.(*ast.CallExpr); ok {
			if fn := calleeFunc(pkg, call); fn != nil && ip.trustedSQLBuilder(fn) {
				continue
			}
		}
		hasRuntime = true
	}
	return hasSQL && hasRuntime
}

// trustedSQLBuilder reports whether fn belongs to the packages allowed
// to produce SQL text: internal/sql and internal/plan.
func (ip *Interproc) trustedSQLBuilder(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	mp := ip.loader.ModulePath
	p := fn.Pkg().Path()
	return p == mp+"/internal/sql" || p == mp+"/internal/plan" ||
		strings.HasPrefix(p, mp+"/internal/sql/") || strings.HasPrefix(p, mp+"/internal/plan/")
}

// flattenConcat collects the leaves of a + chain.
func flattenConcat(e ast.Expr, out *[]ast.Expr) {
	if be, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && be.Op == token.ADD {
		flattenConcat(be.X, out)
		flattenConcat(be.Y, out)
		return
	}
	*out = append(*out, e)
}

// looksLikeSQL reports whether a string constant reads as a SQL query
// fragment.
func looksLikeSQL(s string) bool {
	u := strings.ToUpper(s)
	for _, kw := range []string{
		"SELECT ", "INSERT ", "UPDATE ", "DELETE ", "CREATE VIEW",
		" WHERE ", "WHERE ", " FROM ", "FROM ", " JOIN ", " SET ", "VALUES (",
	} {
		if strings.Contains(u, kw) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Small shared helpers

func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}

func constStringOf(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isWaitGroupMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := derefNamed(sig.Recv().Type())
	return named != nil && named.Obj().Name() == "WaitGroup"
}

func funcHasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && hasContextParam(sig)
}

// calleeFunc resolves the called function/method object, nil for
// conversions, builtins, and calls through function-typed values.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// argKeepsObligation is the Pass-level bridge for the flow analyzers:
// it locates arg's position in call and asks the summaries whether the
// teardown obligation stays with the caller.
func argKeepsObligation(pass *Pass, call *ast.CallExpr, arg ast.Expr, spanArg bool) bool {
	ip := pass.Interproc()
	if ip == nil {
		return false
	}
	for i, a := range call.Args {
		if a == arg {
			return ip.ArgKeepsObligation(call, i, spanArg)
		}
	}
	return false
}

// borrowedIterCall reports whether every resolved concrete target of
// call returns only borrowed iterators (fields, parameters) — then the
// caller has nothing to close.
func borrowedIterCall(pass *Pass, call *ast.CallExpr) bool {
	ip := pass.Interproc()
	if ip == nil {
		return false
	}
	site := ip.Graph.SiteOf(call)
	if site == nil || site.Interface || len(site.Targets) == 0 {
		return false
	}
	for _, t := range site.Targets {
		ts := ip.SummaryOf(t)
		if ts == nil || ts.ReturnsFreshIter {
			return false
		}
	}
	return true
}

// recvTypeName returns the name of fn's receiver type ("" for plain
// functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := derefNamed(sig.Recv().Type())
	if named == nil {
		return ""
	}
	return named.Obj().Name()
}
