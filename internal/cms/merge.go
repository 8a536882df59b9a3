package cms

import (
	"fmt"

	"repro/internal/parallel"
)

// Compatible reports whether o can merge into s: equal dimensions, hash
// seed and scheme. Merging sketches drawn with different dimensions or
// hash functions would silently corrupt estimates.
func (s *Sketch) Compatible(o *Sketch) error {
	if s.d != o.d || s.w != o.w {
		return fmt.Errorf("cms: merge dimension mismatch (%dx%d vs %dx%d)", s.d, s.w, o.d, o.w)
	}
	if s.hashSeed != o.hashSeed {
		return fmt.Errorf("cms: merge hash seed mismatch (%d vs %d)", s.hashSeed, o.hashSeed)
	}
	if s.scheme != o.scheme {
		return fmt.Errorf("cms: merge hash scheme mismatch (%d vs %d)", s.scheme, o.scheme)
	}
	return nil
}

// Merge folds another sketch into s cell-wise. Two count-min sketches
// summarizing streams A and B with identical dimensions and hash
// functions sum to the sketch of A ++ B exactly, so the merged sketch
// keeps the εm guarantee with m = m_A + m_B — the mergeable-summaries
// property [ACH+13] that sharded and distributed deployments rely on.
// Incompatible sketches are rejected and s is left unchanged.
func (s *Sketch) Merge(o *Sketch) error { return s.add(o, 1) }

// Subtract takes a sketch previously merged into s back out, cell-wise:
// the sketch is linear, so Merge(o) then Subtract(o) restores s exactly.
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

// Compatible reports whether o can merge into r: the same universe and,
// level by level, the same dimensions and hash functions.
func (r *RangeSketch) Compatible(o *RangeSketch) error {
	if r.bits != o.bits {
		return fmt.Errorf("cms: merge universe mismatch (2^%d vs 2^%d)", r.bits, o.bits)
	}
	if len(r.levels) != len(o.levels) {
		return fmt.Errorf("cms: merge level count mismatch (%d vs %d)", len(r.levels), len(o.levels))
	}
	for l, s := range r.levels {
		if err := s.Compatible(o.levels[l]); err != nil {
			return fmt.Errorf("cms: merge mismatch at level %d: %w", l, err)
		}
	}
	return nil
}

// Merge folds another range sketch into r level-wise. Every level is
// checked before any is touched, so a mismatch cannot leave the stack
// half-merged.
func (r *RangeSketch) Merge(o *RangeSketch) error { return r.add(o, 1) }

// Subtract takes a range sketch previously merged into r back out.
func (r *RangeSketch) Subtract(o *RangeSketch) error { return r.add(o, -1) }

func (r *RangeSketch) add(o *RangeSketch, sign int64) error {
	if err := r.Compatible(o); err != nil {
		return err
	}
	for l, s := range r.levels {
		if err := s.add(o.levels[l], sign); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the range sketch.
func (r *RangeSketch) Clone() *RangeSketch {
	c := &RangeSketch{bits: r.bits}
	c.levels = make([]*Sketch, len(r.levels))
	for l, s := range r.levels {
		c.levels[l] = s.Clone()
	}
	return c
}
