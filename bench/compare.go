package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readSet reads a result set written with --out and groups the values
// of every end-to-end metric by workload.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20) // a record carries every trial of its run
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// compareSets prints, for every workload and end-to-end metric, the
// median of each result set, how much worse the second is than the
// first, and whether that stays within the metric's bound. It reports
// whether every pair did.
func compareSets(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %7s\n", "workload", "metric", "median A", "median B", "worse by", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, ok = "beyond-bound", false
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+8.1f%% %6.0f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	return ok, nil
}
