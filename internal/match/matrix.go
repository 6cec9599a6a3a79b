package match

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// KeyedSource yields the key-interned example set annotating one module.
// Sources that key (and intern) once per store write — *store.Store via
// GetKeyed — let every matrix build skip canonicalisation entirely; the
// sweep then compares interned symbol IDs end to end.
type KeyedSource func(id string) (set *dataexample.KeyedSet, ok bool)

// MatrixCell is one non-incomparable verdict of the all-pairs sweep.
type MatrixCell struct {
	Target    string  `json:"target"`
	Candidate string  `json:"candidate"`
	Verdict   string  `json:"verdict"`
	Score     float64 `json:"score"`
	Compared  int     `json:"compared"`
	Agreeing  int     `json:"agreeing"`
}

// MatrixStats summarises the sweep: how many ordered pairs the catalog
// induces, how many the signature index pruned without any example
// comparison, how many alignments actually ran, and how many cells were
// filled by symmetry instead of recomputation.
type MatrixStats struct {
	Modules      int `json:"modules"`
	Pairs        int `json:"pairs"`
	Pruned       int `json:"pruned"`
	Compared     int `json:"compared"`
	Mirrored     int `json:"mirrored"`
	Incomparable int `json:"incomparable"`
	Equivalent   int `json:"equivalent"`
	Overlapping  int `json:"overlapping"`
	Disjoint     int `json:"disjoint"`
}

// MatchMatrix is the materialised catalog-wide verdict map: every ordered
// module pair whose behaviours are comparable at all, in deterministic
// (target, candidate) order. Incomparable pairs — the overwhelming
// majority at catalog scale — are represented implicitly: any pair
// absent from Cells is Incomparable.
type MatchMatrix struct {
	Mode    string       `json:"mode"`
	Modules []string     `json:"modules"`
	Missing []string     `json:"missing,omitempty"`
	Cells   []MatrixCell `json:"cells"`
	Stats   MatrixStats  `json:"stats"`
}

// cell is one ordered-pair outcome in the dense n×n grid a build fills.
// The provenance flags (pruned/aligned/mirrored) are kept per cell so the
// stats can be re-assembled from any grid — full build or incremental
// patch — without replaying the sweep.
type cell struct {
	verdict  Verdict
	score    float64
	compared int
	agreeing int
	pruned   bool
	mirrored bool
	aligned  bool // an example alignment actually ran for this direction
}

// matrixInputs is the resolved, sorted input of a matrix build: parallel
// columns over the deduped module IDs that have example sets.
type matrixInputs struct {
	ids     []string
	sigs    []*module.Module
	keyed   []*dataexample.KeyedSet
	missing []string
}

func resolveMatrixInputs(mods []*module.Module, source KeyedSource) matrixInputs {
	sorted := make([]*module.Module, 0, len(mods))
	seen := make(map[string]bool, len(mods))
	for _, m := range mods {
		if m != nil && !seen[m.ID] {
			seen[m.ID] = true
			sorted = append(sorted, m)
		}
	}
	slices.SortFunc(sorted, func(a, b *module.Module) int { return strings.Compare(a.ID, b.ID) })
	var in matrixInputs
	for _, m := range sorted {
		set, ok := source(m.ID)
		if !ok {
			in.missing = append(in.missing, m.ID)
			continue
		}
		in.ids = append(in.ids, m.ID)
		in.sigs = append(in.sigs, m)
		in.keyed = append(in.keyed, set)
	}
	return in
}

// matrixScratch is one worker's arena: comparison buffers and two live
// mapping slots (exact-mode mirroring checks mappingsInverse(fwd, rev),
// so both directions' derivations must be alive at once).
type matrixScratch struct {
	cmp CompareScratch
	fwd mappingSlot
	rev mappingSlot
}

// pruneFunc reports whether the index prunes the ordered direction
// (target index, candidate index) before any mapping or alignment.
type pruneFunc func(ti, ci int) bool

// MatchMatrixFromKeyedSets materialises the all-pairs verdict map over
// pre-keyed example sets. The sweep is pure set alignment — no module is
// invoked — so it runs over stored annotations of retired modules just
// as well as fresh ones.
//
// Determinism and dedup: cells are ordered by (target, candidate) module
// ID regardless of worker scheduling. In ModeExact, a symmetric pair
// whose reverse mapping is exactly the inverse of the forward one (and
// whose sets have unique input keys) is computed once and mirrored —
// alignment through a bijective translation is symmetric in Compared and
// Agreeing — while any ambiguous or asymmetric pair is computed in both
// directions, keeping the matrix byte-identical to the naive ordered
// double loop. ModeRelaxed is inherently directional and always computes
// both directions.
//
// When the Comparer carries a CatalogIndex, each target's feasibility
// query prunes the infeasible candidate row before any alignment.
func (c *Comparer) MatchMatrixFromKeyedSets(ctx context.Context, mods []*module.Module, source KeyedSource) (*MatchMatrix, error) {
	return c.matrix(ctx, "match.matrix", mods, source, nil)
}

// matrix runs one matrix build under a span named spanName: over every
// unordered pair when assigned is nil, otherwise over the pairs whose
// owner — the smaller module ID — satisfies assigned.
func (c *Comparer) matrix(ctx context.Context, spanName string, mods []*module.Module, source KeyedSource, assigned func(id string) bool) (*MatchMatrix, error) {
	_, span := telemetry.StartSpan(ctx, spanName)
	defer span.End()
	met := newMatchMetrics(c.Metrics)

	in := resolveMatrixInputs(mods, source)
	n := len(in.ids)
	pairs := n * (n - 1)
	var own []bool
	if assigned != nil {
		own = make([]bool, n)
		pairs = 0
		for i, id := range in.ids {
			if assigned(id) {
				own[i] = true
				pairs += 2 * (n - 1 - i) // both directions of each owned pair
			}
		}
	}
	mm := newMatrix(c.Mode, &in, pairs)
	if pairs == 0 {
		return mm, ctx.Err()
	}
	_, prune := c.indexView(&in, true)
	grid := make([]cell, n*n)
	if err := c.sweepGrid(ctx, &in, grid, prune, own, nil, &met); err != nil {
		return nil, err
	}
	assembleMatrix(mm, &in, grid, own)
	met.comparisons.Add(uint64(mm.Stats.Compared))
	met.pruned.Add(uint64(mm.Stats.Pruned))
	span.Annotate("modules", strconv.Itoa(n))
	span.Annotate("pairs", strconv.Itoa(mm.Stats.Pairs))
	span.Annotate("pruned", strconv.Itoa(mm.Stats.Pruned))
	span.Annotate("compared", strconv.Itoa(mm.Stats.Compared))
	span.Annotate("mirrored", strconv.Itoa(mm.Stats.Mirrored))
	return mm, nil
}

// newMatrix is the cell-less matrix over resolved inputs.
func newMatrix(mode Mode, in *matrixInputs, pairs int) *MatchMatrix {
	return &MatchMatrix{
		Mode:    mode.String(),
		Modules: in.ids,
		Missing: in.missing,
		Cells:   []MatrixCell{},
		Stats:   MatrixStats{Modules: len(in.ids), Pairs: pairs},
	}
}

// indexView reads the Comparer's index under one lock: every module's
// signature snapshot (nil when unindexed) and, with rows set, a pruneFunc
// over the per-target feasibility rows read alongside (nil without rows).
// Without an index the snapshots are all nil and nothing is pruned.
func (c *Comparer) indexView(in *matrixInputs, rows bool) ([]*moduleSig, pruneFunc) {
	if c.Index == nil {
		return make([]*moduleSig, len(in.ids)), noPrune
	}
	snaps, feas := c.Index.matrixView(in, c.Mode, rows)
	if !rows {
		return snaps, nil
	}
	return snaps, func(ti, ci int) bool { return feas[ti].Prunes(in.ids[ci]) }
}

func noPrune(ti, ci int) bool { return false }

// sweepGrid computes unordered pairs a<b, writing both ordered cells of
// each directly into the dense grid: with rows nil, every pair;
// otherwise, for each row a, every pair (a, b) when rows[a] holds and
// the pairs (a, b) for b in the ascending cols list when it does not.
// Workers claim rows through an atomic counter and carry their own
// scratch, so a warm sweep allocates nothing per cell.
func (c *Comparer) sweepGrid(ctx context.Context, in *matrixInputs, grid []cell, prune pruneFunc, rows []bool, cols []int, met *matchMetrics) error {
	n := len(in.ids)
	sweepRow := func(a int, sc *matrixScratch) {
		if rows == nil || rows[a] {
			for b := a + 1; b < n; b++ {
				c.computePair(in, grid, a, b, prune, sc, met)
			}
			return
		}
		for _, b := range cols {
			if b > a {
				c.computePair(in, grid, a, b, prune, sc, met)
			}
		}
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n-1 {
		workers = n - 1
	}
	if workers <= 1 {
		var sc matrixScratch
		for a := 0; a < n-1; a++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			sweepRow(a, &sc)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc matrixScratch
			for {
				a := int(next.Add(1)) - 1
				if a >= n-1 || ctx.Err() != nil {
					return
				}
				sweepRow(a, &sc)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// computePair settles both ordered directions of the unordered pair
// (a, b), writing grid[a*n+b] and grid[b*n+a]. Workers own disjoint rows
// a and each pair is computed exactly once, so the writes never race.
// Each direction's prune verdict is taken once and threaded through.
func (c *Comparer) computePair(in *matrixInputs, grid []cell, a, b int, prune pruneFunc, sc *matrixScratch, met *matchMetrics) {
	n := len(in.ids)
	pf, pr := prune(a, b), prune(b, a)
	fwd, fok := c.pairMapping(in, a, b, pf, &sc.fwd)
	rev, rok := c.pairMapping(in, b, a, pr, &sc.rev)
	if c.Mode == ModeExact && fok && rok && mappingsInverse(fwd, rev) &&
		in.keyed[a].UniqueInputs() && in.keyed[b].UniqueInputs() {
		out := c.alignCell(in, a, b, fwd, sc, met)
		grid[a*n+b] = out
		out.aligned = false
		out.mirrored = true
		grid[b*n+a] = out
		return
	}
	grid[a*n+b] = c.directionCell(in, a, b, fwd, fok, pf, sc, met)
	grid[b*n+a] = c.directionCell(in, b, a, rev, rok, pr, sc, met)
}

// pairMapping resolves the mapping for the ordered direction (ti, ci)
// into the given slot, unless the index already pruned it.
func (c *Comparer) pairMapping(in *matrixInputs, ti, ci int, pruned bool, sl *mappingSlot) (Mapping, bool) {
	if pruned {
		return Mapping{}, false
	}
	return mapParametersInto(sl, c.Ont, in.sigs[ti], in.sigs[ci], c.Mode)
}

// directionCell turns a resolved (or failed) mapping into one ordered
// cell, keeping a failed mapping and a pruned direction distinguishable
// in stats.
func (c *Comparer) directionCell(in *matrixInputs, ti, ci int, mapping Mapping, ok, pruned bool, sc *matrixScratch, met *matchMetrics) cell {
	if pruned {
		return cell{verdict: Incomparable, pruned: true}
	}
	if !ok {
		return cell{verdict: Incomparable}
	}
	return c.alignCell(in, ti, ci, mapping, sc, met)
}

// alignCell runs the example alignment for one ordered direction.
func (c *Comparer) alignCell(in *matrixInputs, ti, ci int, mapping Mapping, sc *matrixScratch, met *matchMetrics) cell {
	start := time.Now()
	res := CompareKeyedSets(&sc.cmp, in.ids[ti], in.ids[ci], in.keyed[ti], in.keyed[ci], mapping)
	met.matrixCells.Observe(time.Since(start).Seconds())
	return cell{verdict: res.Verdict, score: res.Score(), compared: res.Compared, agreeing: res.Agreeing, aligned: true}
}

// assembleMatrix emits the grid row-major by (target, candidate) and
// derives the stats from the per-cell provenance flags. With own set, an
// ordered cell (a, b) belongs to the matrix only when the smaller index
// of its pair is owned: a shard's slice. Unowned cells in the grid are
// untouched zero values and must not leak into the stats.
func assembleMatrix(mm *MatchMatrix, in *matrixInputs, grid []cell, own []bool) {
	n := len(in.ids)
	count := 0
	for a := 0; a < n; a++ {
		row := grid[a*n : (a+1)*n]
		for b := range row {
			if row[b].verdict != Incomparable && a != b && (own == nil || own[min(a, b)]) {
				count++
			}
		}
	}
	mm.Cells = make([]MatrixCell, 0, count)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b || (own != nil && !own[min(a, b)]) {
				continue
			}
			cr := grid[a*n+b]
			switch {
			case cr.pruned:
				mm.Stats.Pruned++
			case cr.aligned:
				mm.Stats.Compared++
			case cr.mirrored:
				mm.Stats.Mirrored++
			}
			switch cr.verdict {
			case Incomparable:
				mm.Stats.Incomparable++
				continue
			case Equivalent:
				mm.Stats.Equivalent++
			case Overlapping:
				mm.Stats.Overlapping++
			case Disjoint:
				mm.Stats.Disjoint++
			}
			mm.Cells = append(mm.Cells, MatrixCell{
				Target:    in.ids[a],
				Candidate: in.ids[b],
				Verdict:   cr.verdict.String(),
				Score:     cr.score,
				Compared:  cr.compared,
				Agreeing:  cr.agreeing,
			})
		}
	}
}

// mappingsInverse reports whether b is exactly the inverse of a on both
// sides — the condition under which an exact-mode alignment may be
// mirrored instead of recomputed.
func mappingsInverse(a, b Mapping) bool {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for from, to := range a.Inputs {
		if got, ok := b.Inputs[to]; !ok || got != from {
			return false
		}
	}
	for from, to := range a.Outputs {
		if got, ok := b.Outputs[to]; !ok || got != from {
			return false
		}
	}
	return true
}
