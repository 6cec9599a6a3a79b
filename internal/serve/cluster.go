package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"

	"dexa/internal/cluster"
	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/registry"
)

// Cluster endpoints and behaviour, active only when Server.Cluster is
// set. A shard node mounts the intra-cluster API:
//
//	GET  /cluster/info        — this node's identity and replication seq
//	GET  /cluster/sets        — every annotation this shard stores
//	POST /cluster/substitutes — rank a candidate slice against shipped examples
//	POST /cluster/matrix      — compute this shard's slice of the pair matrix
//
// and changes how the public query routes answer: /matches and
// /modules/{id}/substitutes scatter-gather across the ring through the
// cluster Router (merged results are byte-identical to a single node
// holding the whole catalog; failed shards degrade the response to a
// partial one instead of failing it), while /examples and /generate for
// a module another shard owns answer 307 to the owner. A follower node
// mounts /cluster/info only and serves its replicated slice read-only.

func (s *Server) clusterRoutes() []route {
	rts := []route{
		{http.MethodGet, "/cluster/info", s.handleClusterInfo},
	}
	if s.Cluster.Role == cluster.RoleShard {
		rts = append(rts,
			route{http.MethodGet, "/cluster/sets", s.handleClusterSets},
			route{http.MethodPost, "/cluster/substitutes", s.handleClusterSubstitutes},
			route{http.MethodPost, "/cluster/matrix", s.handleClusterMatrix},
			route{http.MethodPost, "/cluster/search", s.handleClusterSearch},
		)
	}
	return rts
}

// clusterMode reports whether public queries scatter-gather: only shard
// nodes route; followers answer from their replicated slice.
func (s *Server) clusterMode() bool {
	return s.Cluster != nil && s.Cluster.Role == cluster.RoleShard && s.Cluster.Router != nil
}

// readOnly reports whether mutating endpoints must refuse: a follower
// mirrors its leader, so accepting a local write would diverge it.
func (s *Server) readOnly() bool {
	return s.Cluster != nil && s.Cluster.Role == cluster.RoleFollower
}

// redirectToOwner answers 307 to the shard owning the module when this
// shard node is not it, and reports whether it did. 307 preserves the
// method, so POST /generate lands on the owner as a POST.
func (s *Server) redirectToOwner(w http.ResponseWriter, r *http.Request, id string) bool {
	n := s.Cluster
	if n == nil || n.Role != cluster.RoleShard || n.Owns(id) {
		return false
	}
	base := n.OwnerURL(id)
	if base == "" {
		return false
	}
	prefix := "/api"
	if n.Router != nil && n.Router.APIPrefix != "" {
		prefix = n.Router.APIPrefix
	}
	loc := strings.TrimSuffix(base, "/") + prefix + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		loc += "?" + q
	}
	http.Redirect(w, r, loc, http.StatusTemporaryRedirect)
	return true
}

func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	info := cluster.Info{
		Shard:   s.Cluster.Self,
		Role:    s.Cluster.Role,
		Seq:     s.Store.Seq(),
		Modules: s.Store.Len(),
	}
	if f := s.Cluster.Follower; f != nil {
		st := f.Status()
		info.Leader = st.Leader
		info.LeaderSeq = st.LeaderSeq
		info.Lag = st.Lag
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleClusterSets(w http.ResponseWriter, r *http.Request) {
	payload := cluster.SetsPayload{
		Shard: s.Cluster.Self,
		Seq:   s.Store.Seq(),
		Sets:  make(map[string]cluster.StoredSet, s.Store.Len()),
	}
	for _, id := range s.Store.IDs() {
		set, hash, ok := s.Store.Get(id)
		if !ok {
			continue
		}
		version, _ := s.Store.Version(id)
		payload.Sets[id] = cluster.StoredSet{Hash: hash, Version: version, Examples: set}
	}
	writeJSON(w, http.StatusOK, payload)
}

// handleClusterSubstitutes ranks this shard's slice of the candidate set
// against the target's examples (shipped in the body — only the owner
// shard stores them). Candidates run through the same FindSubstitutesContext
// path the single-node search uses, so each slice carries exactly the
// entries the oracle would have produced for those candidates.
func (s *Server) handleClusterSubstitutes(w http.ResponseWriter, r *http.Request) {
	if s.Comparer == nil {
		writeError(w, http.StatusNotImplemented, "substitute search is not enabled on this server")
		return
	}
	var req cluster.SubstitutesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding substitutes request: %v", err)
		return
	}
	e, ok := s.Registry.Get(req.Target)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown target module %q", req.Target)
		return
	}
	if len(req.Examples) == 0 {
		writeError(w, http.StatusBadRequest, "target %q shipped no examples", req.Target)
		return
	}
	candMods := make([]*module.Module, 0, len(req.Candidates))
	for _, id := range req.Candidates {
		if ce, ok := s.Registry.Get(id); ok {
			candMods = append(candMods, ce.Module)
		}
	}
	target := match.Unavailable{Signature: e.Module, Examples: req.Examples}
	subs, err := s.Comparer.FindSubstitutesContext(r.Context(), target, candMods)
	if err != nil {
		writeError(w, http.StatusBadGateway, "ranking candidates for %s: %v", req.Target, err)
		return
	}
	reply := cluster.SubstitutesReply{Shard: s.Cluster.Self}
	for _, c := range subs.Ranked {
		reply.Substitutes = append(reply.Substitutes, cluster.SubstituteEntry{
			ID:       c.Module.ID,
			Verdict:  c.Result.Verdict.String(),
			Score:    c.Result.Score(),
			Compared: c.Result.Compared,
			Agreeing: c.Result.Agreeing,
		})
	}
	for _, sk := range subs.Skipped {
		reply.Skipped = append(reply.Skipped, cluster.SkippedEntry{ID: sk.ModuleID, Reason: sk.Reason})
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleClusterMatrix computes this shard's slice of the all-pairs
// matrix: the request carries the full catalog's sets (gathered from
// every shard by the router), the slice covers the pairs whose owner —
// by ring placement — is this shard.
func (s *Server) handleClusterMatrix(w http.ResponseWriter, r *http.Request) {
	if s.Comparer == nil {
		writeError(w, http.StatusNotImplemented, "matching is not enabled on this server")
		return
	}
	var req cluster.MatrixRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding matrix request: %v", err)
		return
	}
	tab := dataexample.NewSymbolTable()
	keyed := make(map[string]*dataexample.KeyedSet, len(req.Sets))
	for id, ss := range req.Sets {
		keyed[id] = ss.Examples.KeyedInterned(tab)
	}
	source := func(id string) (*dataexample.KeyedSet, bool) {
		set, ok := keyed[id]
		return set, ok
	}
	mm, err := s.Comparer.MatchMatrixSlice(r.Context(), s.Registry.Modules(), source, s.Cluster.Owns)
	if err != nil {
		writeError(w, http.StatusBadGateway, "building matrix slice: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, cluster.MatrixReply{Shard: s.Cluster.Self, Matrix: mm})
}

// scatterSubstitutes is the cluster-mode /modules/{id}/substitutes: the
// target's examples come from the local store (owned) or the owner shard
// (not owned), the candidate catalog is partitioned by ring owner, and
// the merged ranking is byte-identical to the single-node search when
// every shard answers. Failed shards degrade the response to a partial
// ranking flagged as such.
func (s *Server) scatterSubstitutes(w http.ResponseWriter, r *http.Request, e *registry.Entry) {
	limit, ok := parseLimitParam(w, r)
	if !ok {
		return
	}
	id := e.Module.ID
	var (
		hash     string
		examples dataexample.Set
	)
	if s.Cluster.Owns(id) {
		set, h, ok := s.Store.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no stored examples for module %q (POST .../generate first)", id)
			return
		}
		hash, examples = h, set
	} else {
		ss, err := s.Cluster.Router.FetchExamples(r.Context(), id)
		if err != nil {
			status := http.StatusBadGateway
			if strings.Contains(err.Error(), "404") {
				status = http.StatusNotFound
			}
			writeError(w, status, "%v", err)
			return
		}
		hash, examples = ss.Hash, ss.Examples
	}
	avail := s.Registry.Available()
	candidates := make([]string, len(avail))
	for i, m := range avail {
		candidates[i] = m.ID
	}
	res, err := s.Cluster.Router.Substitutes(r.Context(), id, hash, examples, candidates)
	if err != nil {
		writeError(w, http.StatusBadGateway, "cluster substitute search for %s: %v", id, err)
		return
	}
	ranked := res.Substitutes
	if limit > 0 && len(ranked) > limit {
		ranked = ranked[:limit]
	}
	resp := substitutesResponse{Target: id, Hash: hash, Partial: res.Partial, FailedShards: res.FailedShards}
	for _, c := range ranked {
		resp.Substitutes = append(resp.Substitutes, substituteInfo(c))
	}
	for _, sk := range res.Skipped {
		resp.Skipped = append(resp.Skipped, skippedInfo(sk))
	}
	writeJSON(w, http.StatusOK, resp)
}

// scatterMatches is the cluster-mode /matches: gather, scatter the
// sweep, merge (see Router.Matrix). The ETag hashes the cluster state
// key — every shard's replication sequence — and is only honoured for
// complete results: a partial build must not 304 against a complete one.
func (s *Server) scatterMatches(w http.ResponseWriter, r *http.Request) {
	res, err := s.Cluster.Router.Matrix(r.Context())
	if err != nil {
		writeError(w, http.StatusBadGateway, "cluster matrix build: %v", err)
		return
	}
	sum := sha256.Sum256([]byte(res.StateKey))
	state := hex.EncodeToString(sum[:])[:32]
	if !res.Partial {
		etag := `"` + state + `"`
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "no-cache")
		if etagMatches(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	writeJSON(w, http.StatusOK, matchesResponse{
		State:        state,
		Matrix:       res.Matrix,
		Partial:      res.Partial,
		FailedShards: res.FailedShards,
	})
}

// clusterStats is the /stats cluster block.
type clusterStats struct {
	Role string `json:"role"`
	Self string `json:"self"`
	Seq  uint64 `json:"seq"`
	// Shards carries the health checker's per-shard verdicts (shard role).
	Shards []cluster.ShardHealth `json:"shards,omitempty"`
	// Replication is the follower's tail position (follower role).
	Replication *cluster.FollowerStatus `json:"replication,omitempty"`
}

func (s *Server) clusterStatsBlock() *clusterStats {
	if s.Cluster == nil {
		return nil
	}
	cs := &clusterStats{Role: s.Cluster.Role, Self: s.Cluster.Self, Seq: s.Store.Seq()}
	if s.Cluster.Checker != nil {
		cs.Shards = s.Cluster.Checker.Status()
	}
	if s.Cluster.Follower != nil {
		st := s.Cluster.Follower.Status()
		cs.Replication = &st
	}
	return cs
}
