package main

import (
	"fmt"
	"io"
	"os"

	"crono/internal/graph"
)

// graphgen generates CRONO input graphs (Table III families) and writes
// them as SNAP-style edge lists, MatrixMarket or METIS, as in
// `crono graphgen -kind road-tx -n 100000 -o tx.el`.
func graphgen(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("crono graphgen", stderr)
	var (
		kind   = fs.String("kind", "sparse", "graph family: sparse, road-tx, road-pa, road-ca, social")
		n      = fs.Int("n", 16384, "approximate vertex count")
		seed   = fs.Int64("seed", 42, "generator seed")
		out    = fs.String("o", "", "output file (default stdout)")
		format = fs.String("format", "edgelist", "output format: edgelist, mtx, metis")
		stats  = fs.Bool("stats", false, "print graph statistics instead of edges")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	g := graph.Generate(graph.Kind(*kind), *n, *seed)
	if err := g.Validate(); err != nil {
		return err
	}
	if *stats {
		s := graph.Summarize(g)
		_, err := fmt.Fprintf(stdout, "kind=%s vertices=%d edges=%d avg-degree=%.2f max-degree=%d components=%d largest-cc=%d\n",
			*kind, s.Vertices, s.Edges, s.AvgDegree, s.MaxDegree, s.Components, s.LargestCC)
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "edgelist":
		return graph.WriteEdgeList(w, g)
	case "mtx":
		return graph.WriteMatrixMarket(w, g)
	case "metis":
		return graph.WriteMETIS(w, g)
	}
	return fmt.Errorf("unknown format %q (want edgelist, mtx or metis)", *format)
}
