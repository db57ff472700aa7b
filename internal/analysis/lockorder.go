package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// schedMu is the abstract class folding every dual-price scheduler's
// RWMutex: the engine holds exactly one scheduler, so their mutexes are
// interchangeable for ordering purposes.
const schedMu lockClass = "sched.mu"

// ledgerMu is the ledger's one lock; a timeslot.Reader takes it in Load and
// when a read falls outside the window it holds.
const ledgerMu lockClass = "revnf/internal/timeslot.Ledger.mu"

// aliases folds concrete lock classes into abstract ones before ranking.
var aliases = map[lockClass]lockClass{
	"revnf/internal/onsite.Scheduler.mu":       schedMu,
	"revnf/internal/offsite.Scheduler.mu":      schedMu,
	"revnf/internal/shared.Scheduler.mu":       schedMu,
	"revnf/internal/chain.OnsiteScheduler.mu":  schedMu,
	"revnf/internal/chain.OffsiteScheduler.mu": schedMu,
}

// canonical is the repository's lock order, outermost first. An edge from
// a later to an earlier class is an inversion. The same list, with the
// reasoning, is documented in DESIGN.md §12.
var canonical = []lockClass{
	"revnf/internal/serve.Engine.mu",
	schedMu,
	ledgerMu,
	"revnf/internal/trace.Store.mu",
	"revnf/internal/baseline.RandomOnsite.mu",
	"revnf/internal/serve.ingestStats.batchMu",
	"revnf/internal/serve.shardHist.mu",
	"revnf/internal/serve.StreamServer.mu",
}

// rank maps each canonical class to its position; lower acquires first.
var rank = func() map[lockClass]int {
	m := make(map[lockClass]int, len(canonical))
	for i, c := range canonical {
		m[c] = i
	}
	return m
}()

// summary is the cross-package acquisition model: for a call on a
// receiver of the keyed type ("pkgpath.TypeName", concrete or interface),
// the classes the callee may acquire. Interface entries union over their
// repository implementations.
var summary = map[string][]lockClass{
	"revnf/internal/timeslot.Ledger":     {ledgerMu},
	"revnf/internal/timeslot.Reader":     {ledgerMu},
	"revnf/internal/timeslot.Pool":       {ledgerMu},
	"revnf/internal/core.CapacityView":   {ledgerMu},
	"revnf/internal/core.TwoPhase":       {schedMu, ledgerMu, "revnf/internal/trace.Store.mu"},
	"revnf/internal/core.WindowAdvancer": {schedMu},
	"revnf/internal/trace.Recorder":      {"revnf/internal/trace.Store.mu"},
}

// fold applies the alias map.
func fold(c lockClass) lockClass {
	if a, ok := aliases[c]; ok {
		return a
	}
	return c
}

// edge is one observed held → acquired pair.
type edge struct {
	from, to lockClass
	// pos is the acquisition site (the Lock call or the call expression
	// whose callee acquires); fromPos is where `from` was acquired.
	pos, fromPos token.Pos
	// via is the callee whose summary/transitive set acquired `to`, nil
	// for a direct Lock/RLock.
	via *types.Func
}

// lockorder checks lock-acquisition ordering in p: every nested
// acquisition must follow the repository's canonical lock order, and no
// package may acquire two lock classes in both orders.
//
// Invariant: the serving stack nests locks in one global order —
//
//	Engine.mu → sched.mu → Ledger.mu → leaf mutexes
//
// (the full ranked list lives in `canonical` above and in DESIGN.md §12;
// "sched.mu" is the abstract class folding every scheduler's RWMutex).
// Any two goroutines that nest in opposite orders can deadlock, and the
// `-race` soaks cannot see it: a lock-order inversion deadlocks only on
// the unlucky interleaving, which sampling rarely hits. This check covers
// the orderings exhaustively instead.
//
// # How edges are found
//
// Per function, a linear source-order scan tracks the set of lock classes
// held: Lock/RLock on a classifiable mutex (see classOf) adds its
// class, Unlock/RUnlock removes it, and `defer` subtrees are skipped — so
// the dominant `mu.Lock(); defer mu.Unlock()` idiom holds the class for
// the rest of the body, and an explicit early unlock releases it. Every
// acquisition performed while other classes are held records held →
// acquired edges. Acquisitions are attributed to calls two ways:
//
//   - same-package callees contribute their transitive acquisition set
//     (memoized over the package call graph);
//   - cross-package and interface callees contribute a hand-maintained
//     summary keyed by receiver type (`summary` above) — the check's
//     model of which locks the ledger, the schedulers and the trace store
//     take. A callee's acquisitions do not persist in the held set:
//     callees are assumed balanced (they release what they acquire).
//
// # What is flagged
//
//   - acquiring a class already held (instance-blind self-deadlock risk);
//   - an edge from a higher-ranked to a lower-ranked canonical class (a
//     canonical-order inversion);
//   - for classes outside the canonical list, edges participating in a
//     cycle within the package (two orders both taken).
//
// # Known approximations
//
// Classes are instance-blind: two Engines locking each other's mutexes
// are indistinguishable from self-nesting (no such topology exists here).
// Loop bodies are scanned once, so ascending same-class acquisition inside
// a loop would be invisible (the tree has none). Branches are scanned
// sequentially, so a release on an early-return path releases for the
// linear remainder; this under-approximates held sets but never invents
// edges that cannot occur. A channel used as a lock is invisible: the
// engine's worker tokens rank before Engine.mu (DESIGN.md §12.3), and the
// pd-shared leg of serve's TestSoakFailureRuntimeSharded deadlocks if a
// change takes them the other way round.
func lockorder(p *typedPkg) []Finding {
	s := &scanner{
		p:         p,
		decls:     funcDecls(p),
		acquires:  make(map[*types.Func][]lockClass),
		computing: make(map[*types.Func]bool),
	}
	s.reportf = p.reportf("lockorder", &s.out)
	// Deterministic function order: by declaration position.
	fns := make([]*types.Func, 0, len(s.decls))
	for fn := range s.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return s.decls[fns[i]].Pos() < s.decls[fns[j]].Pos() })
	for _, fn := range fns {
		s.scanBody(s.decls[fn].Body)
		// Function literals spawn fresh scans: a goroutine or deferred
		// closure does not inherit the spawner's held set.
		for len(s.pending) > 0 {
			body := s.pending[0]
			s.pending = s.pending[1:]
			s.scanBody(body)
		}
	}
	s.report()
	return s.out
}

type scanner struct {
	p       *typedPkg
	out     []Finding
	reportf func(pos token.Pos, format string, args ...any)
	decls   map[*types.Func]*ast.FuncDecl
	edges   []edge
	// pending queues function-literal bodies for their own scans.
	pending []*ast.BlockStmt
	// acquires memoizes transitive acquisition sets per declared function;
	// computing breaks recursion cycles.
	acquires  map[*types.Func][]lockClass
	computing map[*types.Func]bool
}

// scanBody runs the linear held-set scan over one body.
func (s *scanner) scanBody(body *ast.BlockStmt) {
	held := make(map[lockClass]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.FuncLit:
			s.pending = append(s.pending, x.Body)
			return false
		case *ast.CallExpr:
			if op, ok := asLockOp(s.p.Info, x); ok {
				cls := fold(op.class)
				if op.acquire {
					s.noteAcquire(held, cls, x.Pos(), nil)
					held[cls] = x.Pos()
				} else {
					delete(held, cls)
				}
				return true
			}
			if len(held) > 0 {
				if fn, _ := callee(s.p.Info, x); fn != nil {
					for _, a := range s.acquiresOf(fn) {
						s.noteAcquire(held, a, x.Pos(), fn)
					}
				}
			}
			return true
		}
		return true
	})
}

// noteAcquire records one held → acquired edge per held class.
func (s *scanner) noteAcquire(held map[lockClass]token.Pos, to lockClass, pos token.Pos, via *types.Func) {
	for from, fromPos := range held {
		s.edges = append(s.edges, edge{from: from, to: to, pos: pos, fromPos: fromPos, via: via})
	}
}

// acquiresOf returns the folded classes a callee may acquire: the
// transitive set for same-package declared functions, the summary for
// cross-package and interface callees.
func (s *scanner) acquiresOf(fn *types.Func) []lockClass {
	if set, ok := s.acquires[fn]; ok {
		return set
	}
	fd, declared := s.decls[fn]
	if !declared {
		var set []lockClass
		if named := receiverNamed(fn); named != nil && named.Obj().Pkg() != nil {
			for _, c := range summary[named.Obj().Pkg().Path()+"."+named.Obj().Name()] {
				set = append(set, fold(c))
			}
		}
		s.acquires[fn] = set
		return set
	}
	if s.computing[fn] {
		return nil // recursion: the cycle's acquisitions surface elsewhere
	}
	s.computing[fn] = true
	seen := make(map[lockClass]bool)
	var set []lockClass
	add := func(c lockClass) {
		if !seen[c] {
			seen[c] = true
			set = append(set, c)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // asynchronous acquisition is not the caller's
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := asLockOp(s.p.Info, call); ok {
			if op.acquire {
				add(fold(op.class))
			}
			return true
		}
		if g, _ := callee(s.p.Info, call); g != nil && g != fn {
			for _, c := range s.acquiresOf(g) {
				add(c)
			}
		}
		return true
	})
	delete(s.computing, fn)
	s.acquires[fn] = set
	return set
}

// report turns the recorded edges into diagnostics: self-edges and
// canonical inversions at every site, cycles among unranked classes once
// per ordered pair.
func (s *scanner) report() {
	sort.Slice(s.edges, func(i, j int) bool {
		a, b := s.edges[i], s.edges[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	var cyclic []edge
	for _, e := range s.edges {
		switch {
		case e.from == e.to:
			s.reportf(e.pos, "%sacquires %s while already holding it (held since %s); same-class nesting has no defined order and can self-deadlock",
				viaClause(e), trimPkg(e.to), s.p.Fset.Position(e.fromPos))
		case ranked(e.from) && ranked(e.to):
			if rank[e.from] > rank[e.to] {
				s.reportf(e.pos, "%sacquires %s while holding %s, inverting the canonical lock order (%s ranks before %s; see DESIGN.md)",
					viaClause(e), trimPkg(e.to), trimPkg(e.from), trimPkg(e.to), trimPkg(e.from))
			}
		default:
			cyclic = append(cyclic, e)
		}
	}
	s.reportCycles(cyclic)
}

func ranked(c lockClass) bool {
	_, ok := rank[c]
	return ok
}

func viaClause(e edge) string {
	if e.via == nil {
		return ""
	}
	return fmt.Sprintf("call to %s ", trimPkg(lockClass(methodKey(e.via))))
}

// reportCycles flags edges between (at least partly) unranked classes
// that sit inside a strongly connected component: the package takes the
// classes in more than one order. One diagnostic per ordered pair, at the
// first recorded site.
func (s *scanner) reportCycles(edges []edge) {
	if len(edges) == 0 {
		return
	}
	adj := make(map[lockClass][]lockClass)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	comp := scc(adj)
	done := make(map[[2]lockClass]bool)
	for _, e := range edges {
		cf, okf := comp[e.from]
		ct, okt := comp[e.to]
		if !okf || !okt || cf != ct {
			continue
		}
		key := [2]lockClass{e.from, e.to}
		if done[key] {
			continue
		}
		done[key] = true
		s.reportf(e.pos, "%sacquires %s while holding %s, but this package also nests them in the opposite order: lock-order cycle",
			viaClause(e), trimPkg(e.to), trimPkg(e.from))
	}
}

// scc computes strongly connected components (Tarjan), returning a
// component id per node; only components with a real cycle (size > 1)
// are assigned — self-edges are handled before cycle detection.
func scc(adj map[lockClass][]lockClass) map[lockClass]int {
	nodes := make([]lockClass, 0, len(adj))
	seen := make(map[lockClass]bool)
	addNode := func(c lockClass) {
		if !seen[c] {
			seen[c] = true
			nodes = append(nodes, c)
		}
	}
	for from, tos := range adj {
		addNode(from)
		for _, to := range tos {
			addNode(to)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	index := make(map[lockClass]int)
	low := make(map[lockClass]int)
	onStack := make(map[lockClass]bool)
	var stack []lockClass
	comp := make(map[lockClass]int)
	next, ncomp := 0, 0

	var strongconnect func(v lockClass)
	strongconnect = func(v lockClass) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []lockClass
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) > 1 {
				for _, m := range members {
					comp[m] = ncomp
				}
				ncomp++
			}
		}
	}
	for _, v := range nodes {
		if _, visited := index[v]; !visited {
			strongconnect(v)
		}
	}
	return comp
}
