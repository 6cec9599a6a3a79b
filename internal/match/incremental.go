package match

import (
	"context"
	"strconv"
	"sync"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// IncrementalMatrix maintains the catalog's all-pairs verdict grid across
// catalog changes, recomputing only the rows and columns of modules that
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
// endpoints per module is exact, not heuristic. Unchanged pairs are
// copied from the previous grid; changed pairs run through the same pair
// computation as the full build, with PrunesPair standing in for the
// row-bitset feasibility query (the two agree per construction; see
// CatalogIndex.PrunesPair).
//
// Concurrency: Matrix serialises callers on an internal mutex; the
// underlying Comparer must be safe for the sweep's worker fan-out, as in
// the full build.
type IncrementalMatrix struct {
	cmp *Comparer

	mu      sync.Mutex
	built   bool
	in      matrixInputs
	grid    []cell
	keyedAt map[string]*dataexample.KeyedSet
	sigAt   map[string]*module.Module
	ixSigAt map[string]*moduleSig
	dirty   map[string]bool
	matrix  *MatchMatrix
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
	im.matrix = nil
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

	// ixSig is the index's signature snapshot for id (nil when unindexed
	// or no index): a fresh pointer on every Update, nil after Remove, so
	// pointer inequality captures both membership flips and re-indexed
	// signature changes.
	ixSig := func(id string) *moduleSig {
		if im.cmp.Index == nil {
			return nil
		}
		return im.cmp.Index.sigSnapshot(id)
	}

	var grid []cell
	var changed int
	if !im.built {
		full, err := im.cmp.buildGrid(ctx, &in, nil, &met)
		if err != nil {
			return nil, err
		}
		grid = full
		changed = n
		span.Annotate("build", "full")
	} else {
		// Diff the new universe against the cached one. Removed modules
		// need no recompute — their rows and columns simply vanish.
		changedIDs := make(map[string]bool)
		for i, id := range in.ids {
			if im.dirty[id] || im.keyedAt[id] != in.keyed[i] || im.sigAt[id] != in.sigs[i] || im.ixSigAt[id] != ixSig(id) {
				changedIDs[id] = true
			}
		}
		changed = len(changedIDs)
		grid = make([]cell, n*n)
		if changed > 0 || len(in.ids) != len(im.in.ids) {
			oldRank := im.in.rank()
			oldN := len(im.in.ids)
			for a := 0; a < n; a++ {
				if !changedIDs[in.ids[a]] {
					oa := oldRank[in.ids[a]]
					for b := 0; b < n; b++ {
						if a == b || changedIDs[in.ids[b]] {
							continue
						}
						ob := oldRank[in.ids[b]]
						grid[a*n+b] = im.grid[oa*oldN+ob]
					}
				}
			}
			prune := func(ti, ci int) bool {
				if im.cmp.Index == nil {
					return false
				}
				return im.cmp.Index.PrunesPair(in.sigs[ti], in.sigs[ci], im.cmp.Mode)
			}
			need := func(a, b int) bool { return changedIDs[in.ids[a]] || changedIDs[in.ids[b]] }
			if n >= 2 {
				if err := im.cmp.sweepGrid(ctx, &in, grid, prune, need, &met); err != nil {
					return nil, err
				}
			}
		} else {
			copy(grid, im.grid)
		}
		span.Annotate("build", "incremental")
	}

	mm := newMatrix(im.cmp.Mode, &in, n*(n-1))
	if n >= 2 {
		assembleMatrix(mm, &in, grid, nil)
	}

	im.built = true
	im.in = in
	im.grid = grid
	im.matrix = mm
	im.keyedAt = make(map[string]*dataexample.KeyedSet, n)
	im.sigAt = make(map[string]*module.Module, n)
	im.ixSigAt = make(map[string]*moduleSig, n)
	for i, id := range in.ids {
		im.keyedAt[id] = in.keyed[i]
		im.sigAt[id] = in.sigs[i]
		im.ixSigAt[id] = ixSig(id)
	}
	clear(im.dirty)

	met.comparisons.Add(uint64(mm.Stats.Compared))
	met.pruned.Add(uint64(mm.Stats.Pruned))
	span.Annotate("modules", strconv.Itoa(n))
	span.Annotate("changed", strconv.Itoa(changed))
	return mm, nil
}
