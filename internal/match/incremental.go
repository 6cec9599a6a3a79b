package match

import (
	"context"
	"slices"
	"strconv"
	"sync"

	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// IncrementalMatrix maintains the catalog's all-pairs verdict grid across
// catalog changes, recomputing only the pairs that touch a module that
// actually changed instead of re-sweeping every pair. It produces output
// byte-identical to a fresh MatchMatrixFromKeyedSets build over the same
// inputs (TestIncrementalMatrixEqualsFull drives random mutation
// sequences against the full rebuild).
//
// A module's row and column are invalidated when any of these change
// between calls:
//
//   - its keyed-set pointer from the source (the store hands out one
//     *KeyedSet per stored content, so a changed pointer means changed
//     annotation — and a re-annotation restoring identical content is a
//     content-addressed no-op that keeps the pointer);
//   - its signature pointer (callers passing rebuilt module values
//     conservatively recompute);
//   - its indexed-signature snapshot (CatalogIndex.Update/Remove, fired
//     by the lifecycle's availability flips, install a fresh snapshot or
//     drop it — and membership decides whether the pair can be pruned at
//     all, which the stats observe);
//   - an explicit Invalidate(id).
//
// The per-pair outcome depends only on the two endpoints' signatures,
// keyed sets and index membership — never on third modules — so diffing
// endpoints per module is exact, not heuristic.
//
// The cached state is index-aligned with the previous build's sorted
// module IDs: its inputs, the index snapshots its cells were computed
// under, and the dense n×n grid. The snapshots are read once per call,
// before any sweep, and the same read decides both change detection and
// pruning, so an index flip racing a sweep is never recorded as applied
// to cells computed without it. When the sorted IDs are unchanged (the
// steady state), the cached grid is patched in place and the sweep visits
// only the pairs touching a changed module, pruning each direction from
// the snapshots (snapshotPrune, the per-pair form of the row query).
// When the universe changed, unchanged pairs are copied into a fresh grid
// first. A sweep that errors or is cancelled leaves the cached state as
// it was, except that an in-place sweep marks its changed modules dirty:
// every cell it may have written touches one of them, so the next call
// recomputes exactly those pairs and never serves a half-patched cell.
//
// Concurrency: Matrix serialises callers on an internal mutex; the
// underlying Comparer must be safe for the sweep's worker fan-out, as in
// the full build.
type IncrementalMatrix struct {
	cmp *Comparer

	mu    sync.Mutex
	built bool
	in    matrixInputs
	snaps []*moduleSig // index snapshots the grid was computed under, aligned with in.ids
	grid  []cell
	dirty map[string]bool
}

// NewIncrementalMatrix wraps a Comparer. The Comparer's Mode, Index and
// Workers are read on every call, but changing Mode or swapping Index
// between calls requires InvalidateAll.
func NewIncrementalMatrix(cmp *Comparer) *IncrementalMatrix {
	return &IncrementalMatrix{cmp: cmp, dirty: map[string]bool{}}
}

// Invalidate marks modules whose cached rows and columns must be
// recomputed on the next Matrix call, regardless of pointer equality.
func (im *IncrementalMatrix) Invalidate(ids ...string) {
	im.mu.Lock()
	defer im.mu.Unlock()
	for _, id := range ids {
		im.dirty[id] = true
	}
}

// InvalidateAll drops the cached grid entirely; the next Matrix call
// runs a full sweep.
func (im *IncrementalMatrix) InvalidateAll() {
	im.mu.Lock()
	defer im.mu.Unlock()
	im.built = false
	im.grid = nil
	clear(im.dirty)
}

// Matrix returns the all-pairs matrix over the given modules and source,
// recomputing only the pairs whose endpoints changed since the previous
// call. The returned matrix is shared with the cache: treat it (and its
// cells) as read-only.
func (im *IncrementalMatrix) Matrix(ctx context.Context, mods []*module.Module, source KeyedSource) (*MatchMatrix, error) {
	_, span := telemetry.StartSpan(ctx, "match.matrix.incremental")
	defer span.End()
	met := newMatchMetrics(im.cmp.Metrics)

	im.mu.Lock()
	defer im.mu.Unlock()

	in := resolveMatrixInputs(mods, source)
	n := len(in.ids)
	snaps, prune := im.cmp.indexView(&in, !im.built)

	var grid []cell
	var changed int
	if !im.built {
		grid = make([]cell, n*n)
		if err := im.cmp.sweepGrid(ctx, &in, grid, prune, nil, nil, &met); err != nil {
			return nil, err
		}
		changed = n
		span.Annotate("build", "full")
	} else {
		rows, cols, remap := im.diff(&in, snaps)
		changed = len(cols)
		if remap == nil {
			grid = im.grid
		} else {
			grid = im.carryOver(n, rows, remap)
		}
		if changed > 0 {
			prune = noPrune
			if im.cmp.Index != nil {
				prune = im.cmp.Index.snapshotPrune(&in, snaps, im.cmp.Mode)
			}
			if err := im.cmp.sweepGrid(ctx, &in, grid, prune, rows, cols, &met); err != nil {
				if remap == nil {
					// The sweep patched the cached grid in place, but
					// only at pairs touching a changed module.
					for _, i := range cols {
						im.dirty[in.ids[i]] = true
					}
				}
				return nil, err
			}
		}
		span.Annotate("build", "incremental")
	}

	mm := newMatrix(im.cmp.Mode, &in, n*(n-1))
	if n >= 2 {
		assembleMatrix(mm, &in, grid, nil)
	}

	im.built = true
	im.in = in
	im.snaps = snaps
	im.grid = grid
	clear(im.dirty)

	met.comparisons.Add(uint64(mm.Stats.Compared))
	met.pruned.Add(uint64(mm.Stats.Pruned))
	span.Annotate("modules", strconv.Itoa(n))
	span.Annotate("changed", strconv.Itoa(changed))
	return mm, nil
}

// diff compares the new inputs and index snapshots with the cached
// build. rows marks, over the new indices, the modules whose pairs must
// be recomputed — new to the universe, or with a changed keyed set,
// signature, index snapshot or explicit invalidation — and cols lists
// them in ascending order. remap gives each new index's position in the
// cached build (-1 for a new module); it is nil when the sorted IDs are
// unchanged, and only then is a lookup map built.
func (im *IncrementalMatrix) diff(in *matrixInputs, snaps []*moduleSig) (rows []bool, cols []int, remap []int) {
	if !slices.Equal(in.ids, im.in.ids) {
		oldRank := make(map[string]int, len(im.in.ids))
		for i, id := range im.in.ids {
			oldRank[id] = i
		}
		remap = make([]int, len(in.ids))
		for i, id := range in.ids {
			o, ok := oldRank[id]
			if !ok {
				o = -1
			}
			remap[i] = o
		}
	}
	rows = make([]bool, len(in.ids))
	for i, id := range in.ids {
		o := i
		if remap != nil {
			o = remap[i]
		}
		if o < 0 || im.dirty[id] || im.in.keyed[o] != in.keyed[i] ||
			im.in.sigs[o] != in.sigs[i] || im.snaps[o] != snaps[i] {
			rows[i] = true
			cols = append(cols, i)
		}
	}
	return rows, cols, remap
}

// carryOver copies every pair of unchanged modules from the cached grid
// into a fresh one laid out over the new universe.
func (im *IncrementalMatrix) carryOver(n int, rows []bool, remap []int) []cell {
	grid := make([]cell, n*n)
	oldN := len(im.in.ids)
	for a, oa := range remap {
		if rows[a] {
			continue
		}
		for b, ob := range remap {
			if a != b && !rows[b] {
				grid[a*n+b] = im.grid[oa*oldN+ob]
			}
		}
	}
	return grid
}
