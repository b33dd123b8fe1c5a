package main

import (
	"fmt"
	"math"
	"sort"

	"deepfusion/internal/screen"
)

// poseKey identifies one scored pose. Predictions are compared by key,
// never by position: the order poses come back in is not part of the
// contract being checked.
type poseKey struct {
	target, compound string
	rank             int
}

func keyOf(p screen.Prediction) poseKey { return poseKey{p.Target, p.CompoundID, p.PoseRank} }

// compareExact checks that got holds exactly the poses of want, once
// each, with bitwise-equal Fusion, Vina and MMGBSA values and equal
// per-scorer columns.
func compareExact(got, want []screen.Prediction) error {
	ref := make(map[poseKey]screen.Prediction, len(want))
	for _, w := range want {
		if _, dup := ref[keyOf(w)]; dup {
			return fmt.Errorf("reference holds pose %v twice", keyOf(w))
		}
		ref[keyOf(w)] = w
	}
	seen := make(map[poseKey]bool, len(got))
	for _, g := range got {
		k := keyOf(g)
		w, ok := ref[k]
		switch {
		case !ok:
			return fmt.Errorf("pose %v is not in the reference", k)
		case seen[k]:
			return fmt.Errorf("pose %v appears twice", k)
		}
		seen[k] = true
		cols := []struct {
			name      string
			got, want float64
		}{{"fusion", g.Fusion, w.Fusion}, {"vina", g.Vina, w.Vina}, {"mmgbsa", g.MMGBSA, w.MMGBSA}}
		for _, c := range cols {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				return fmt.Errorf("pose %v: %s %v, reference %v", k, c.name, c.got, c.want)
			}
		}
		if len(g.Scores) != len(w.Scores) {
			return fmt.Errorf("pose %v: %d scorer columns, reference %d", k, len(g.Scores), len(w.Scores))
		}
		for name, v := range w.Scores {
			if math.Float64bits(g.Scores[name]) != math.Float64bits(v) {
				return fmt.Errorf("pose %v: scorer %s %v, reference %v", k, name, g.Scores[name], v)
			}
		}
	}
	if len(seen) != len(ref) {
		var missing []poseKey
		for k := range ref {
			if !seen[k] {
				missing = append(missing, k)
			}
		}
		sort.Slice(missing, func(a, b int) bool { return fmt.Sprint(missing[a]) < fmt.Sprint(missing[b]) })
		return fmt.Errorf("%d reference poses missing, first %v", len(missing), missing[0])
	}
	return nil
}

// compareRelative checks got against a reference of another precision:
// the same keys once each, every Fusion value finite and within tol of
// the reference, relative to max(|reference|, 1) as the engine's
// precision tests measure it.
func compareRelative(got, want []screen.Prediction, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d predictions, reference %d", len(got), len(want))
	}
	ref := make(map[poseKey]float64, len(want))
	for _, w := range want {
		ref[keyOf(w)] = w.Fusion
	}
	seen := map[poseKey]bool{}
	for _, g := range got {
		k := keyOf(g)
		w, ok := ref[k]
		if !ok || seen[k] {
			return fmt.Errorf("pose %v missing from the reference or repeated", k)
		}
		seen[k] = true
		if math.IsNaN(g.Fusion) || math.IsInf(g.Fusion, 0) {
			return fmt.Errorf("pose %v: score %v is not finite", k, g.Fusion)
		}
		if d := math.Abs(g.Fusion-w) / math.Max(math.Abs(w), 1); d > tol {
			return fmt.Errorf("pose %v: %v vs reference %v, relative difference %.3g > %g", k, g.Fusion, w, d, tol)
		}
	}
	return nil
}

// sortCanonical orders poses by (compound, pose rank), the order the
// campaign scores a unit in.
func sortCanonical(poses []screen.Pose) {
	sort.Slice(poses, func(a, b int) bool {
		if poses[a].CompoundID != poses[b].CompoundID {
			return poses[a].CompoundID < poses[b].CompoundID
		}
		return poses[a].PoseRank < poses[b].PoseRank
	})
}
