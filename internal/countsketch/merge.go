package countsketch

import (
	"fmt"

	"repro/internal/parallel"
)

// Compatible reports whether o can merge into s: equal dimensions, hash
// seed and scheme.
func (s *Sketch) Compatible(o *Sketch) error {
	if s.d != o.d || s.w != o.w {
		return fmt.Errorf("countsketch: merge dimension mismatch (%dx%d vs %dx%d)", s.d, s.w, o.d, o.w)
	}
	if s.hashSeed != o.hashSeed {
		return fmt.Errorf("countsketch: merge hash seed mismatch (%d vs %d)", s.hashSeed, o.hashSeed)
	}
	if s.scheme != o.scheme {
		return fmt.Errorf("countsketch: merge hash scheme mismatch (%d vs %d)", s.scheme, o.scheme)
	}
	return nil
}

// Merge folds another sketch into s cell-wise. Count-sketch is a linear
// sketch: with identical dimensions and hash/sign functions, the cell
// sums of two sketches form the sketch of the concatenated streams, so
// the merged estimate keeps the ±ε‖f‖₂ guarantee for the combined
// frequency vector (and ‖f_A + f_B‖₂ <= ‖f_A‖₂ + ‖f_B‖₂ bounds the
// merged error by the sum of the parts). Incompatible sketches are
// rejected and s is left unchanged.
func (s *Sketch) Merge(o *Sketch) error { return s.add(o, 1) }

// Subtract takes a sketch previously merged into s back out, cell-wise:
// Merge(o) then Subtract(o) restores s exactly.
func (s *Sketch) Subtract(o *Sketch) error { return s.add(o, -1) }

// add folds sign·o into s, the one loop behind Merge and Subtract.
func (s *Sketch) add(o *Sketch, sign int64) error {
	if err := s.Compatible(o); err != nil {
		return err
	}
	parallel.ForGrain(s.d, 1, func(i int) {
		row, orow := s.rows[i], o.rows[i]
		for j := range row {
			row[j] += sign * orow[j]
		}
	})
	s.m += sign * o.m
	return nil
}

// Clone returns a deep copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	c := NewWithDimsScheme(s.d, s.w, s.hashSeed, s.scheme)
	c.m = s.m
	c.seed = s.seed
	for i := range s.rows {
		copy(c.rows[i], s.rows[i])
	}
	return c
}
