// Command dexa-match compares the behaviour of two modules of the
// simulation universe using data examples, or finds ranked substitutes for
// a module.
//
// Usage:
//
//	dexa-match -a getUniprotRecord -b getFastaSequence   # compare two modules
//	dexa-match -substitutes getUniprotRecord             # rank substitutes
//	dexa-match -a sequenceToFasta -b seqExport -relaxed  # relaxed mapping
//	dexa-match -all                                      # all-pairs verdict matrix (JSON)
//	dexa-match -all -o matrix.json                       # ... written to a file
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/simulation"
)

func main() {
	a := flag.String("a", "", "first module ID")
	b := flag.String("b", "", "second module ID")
	substitutes := flag.String("substitutes", "", "find substitutes for this module ID")
	all := flag.Bool("all", false, "materialise the all-pairs match matrix as JSON")
	out := flag.String("o", "", "write -all output to this file instead of stdout")
	relaxed := flag.Bool("relaxed", false, "use relaxed (superconcept) parameter mapping")
	flag.Parse()

	fmt.Fprintln(os.Stderr, "building experimental universe...")
	u := simulation.NewUniverse()
	cmp := match.NewComparer(u.Ont, u.Gen)
	if *relaxed {
		cmp.Mode = match.ModeRelaxed
	}

	lookup := func(id string) *simulation.CatalogEntry {
		e, ok := u.Catalog.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown module %q\n", id)
			os.Exit(1)
		}
		return e
	}

	switch {
	case *all:
		mods := u.Registry.Modules()
		cmp.Index = match.NewCatalogIndex(u.Ont, mods)
		// Annotate every module up front, keying and interning each set
		// into one shared symbol table so the sweep compares symbol IDs;
		// modules whose generation fails (unavailable executors, say)
		// surface in the matrix's Missing list.
		tab := dataexample.NewSymbolTable()
		sets := make(map[string]*dataexample.KeyedSet, len(mods))
		for _, m := range mods {
			set, _, err := u.Gen.Generate(m)
			if err != nil || len(set) == 0 {
				fmt.Fprintf(os.Stderr, "skipping %s: no examples (%v)\n", m.ID, err)
				continue
			}
			sets[m.ID] = set.KeyedInterned(tab)
		}
		mm, err := cmp.MatchMatrixFromKeyedSets(context.Background(), mods, func(id string) (*dataexample.KeyedSet, bool) {
			s, ok := sets[id]
			return s, ok
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(mm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st := mm.Stats
		fmt.Fprintf(os.Stderr, "matrix: %d modules, %d pairs — %d pruned by index, %d compared, %d mirrored; %d equivalent, %d overlapping, %d disjoint\n",
			st.Modules, st.Pairs, st.Pruned, st.Compared, st.Mirrored, st.Equivalent, st.Overlapping, st.Disjoint)
	case *substitutes != "":
		target := lookup(*substitutes)
		set, _, err := u.Gen.Generate(target.Module)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		subs, err := cmp.FindSubstitutesContext(context.Background(),
			match.Unavailable{Signature: target.Module, Examples: set},
			u.Registry.Available())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("substitutes for %s (%d candidates):\n", *substitutes, len(subs.Ranked))
		for _, c := range subs.Ranked {
			fmt.Printf("  %-30s %-12s agreement %d/%d (%.2f)\n",
				c.Module.ID, c.Result.Verdict, c.Result.Agreeing, c.Result.Compared, c.Result.Score())
		}
		for _, sk := range subs.Skipped {
			fmt.Printf("  %-30s skipped: %s\n", sk.ModuleID, sk.Reason)
		}
	case *a != "" && *b != "":
		ma, mb := lookup(*a), lookup(*b)
		res, err := cmp.Compare(ma.Module, mb.Module)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s vs %s: %s (agreement %d/%d)\n", *a, *b, res.Verdict, res.Agreeing, res.Compared)
		for from, to := range res.Mapping.Inputs {
			fmt.Printf("  input  %s -> %s\n", from, to)
		}
		for from, to := range res.Mapping.Outputs {
			fmt.Printf("  output %s -> %s\n", from, to)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: dexa-match -a <id> -b <id> | -substitutes <id> | -all [-o file]")
		os.Exit(2)
	}
}
