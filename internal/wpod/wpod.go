// Package wpod implements the window proper orthogonal decomposition of
// §3.4: the method of snapshots applied to a space-time window of noisy
// atomistic field data. Snapshots (bin-averaged velocity fields sampled over
// Nts time-steps) are correlated; the correlation-matrix eigenspectrum is
// split adaptively by convergence rate — fast-decaying low modes carry the
// collective, correlated motion (the ensemble average ū(t,x)) while the flat
// tail of slowly decaying modes carries the thermal fluctuations u′(t,x).
// The paper reports roughly one order of magnitude accuracy gain over
// standard averaging, equivalent to ~25 concurrent realizations.
package wpod

import (
	"fmt"
	"math"

	"nektarg/internal/linalg"
)

// Options tunes the analysis.
type Options struct {
	// NoiseFactor is the multiple of the spectral noise floor an eigenvalue
	// must exceed to count as a correlated (signal) mode; 0 selects the
	// default of 5.
	NoiseFactor float64
	// ForceCutoff, when positive, overrides the adaptive mode selection.
	ForceCutoff int
}

// Result is a completed window POD.
type Result struct {
	// Eigenvalues of the snapshot correlation matrix, descending.
	Eigenvalues []float64
	// Spatial holds the spatial modes φ_k(x) as columns (M x N).
	Spatial *linalg.Dense
	// Temporal holds the temporal coefficients a_k(t): Temporal.At(t, k) is
	// mode k's coefficient at snapshot t (N x N).
	Temporal *linalg.Dense
	// Cutoff is the number of modes attributed to the correlated motion.
	Cutoff int

	snapshots [][]float64
}

// Analyze runs the method of snapshots over the window. Each snapshot is one
// spatial field of identical length M; at least 2 snapshots are required.
func Analyze(snapshots [][]float64, opts Options) (*Result, error) {
	n := len(snapshots)
	if n < 2 {
		return nil, fmt.Errorf("wpod: need >= 2 snapshots, got %d", n)
	}
	m := len(snapshots[0])
	for k, s := range snapshots {
		if len(s) != m {
			return nil, fmt.Errorf("wpod: snapshot %d has %d values, want %d", k, len(s), m)
		}
	}
	if m == 0 {
		return nil, fmt.Errorf("wpod: empty snapshots")
	}

	// Correlation matrix C_kl = <u_k, u_l> / n.
	c := linalg.NewDense(n, n)
	for k := 0; k < n; k++ {
		for l := k; l < n; l++ {
			var s float64
			for i := 0; i < m; i++ {
				s += float64(snapshots[k][i] * snapshots[l][i])
			}
			s /= float64(n)
			c.Set(k, l, s)
			c.Set(l, k, s)
		}
	}
	vals, vecs, err := linalg.EigenSym(c)
	if err != nil {
		return nil, fmt.Errorf("wpod: %w", err)
	}
	// Clamp tiny negative round-off eigenvalues.
	for i := range vals {
		if vals[i] < 0 {
			vals[i] = 0
		}
	}

	// Spatial modes: φ_j = Σ_k V_kj u_k, normalized to unit energy.
	spatial := linalg.NewDense(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		col := make([]float64, m)
		for k := 0; k < n; k++ {
			w := vecs.At(k, j)
			if w == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				col[i] += float64(w * snapshots[k][i])
			}
		}
		for i := 0; i < m; i++ {
			norm += float64(col[i] * col[i])
		}
		norm = math.Sqrt(norm)
		if norm > 0 {
			for i := 0; i < m; i++ {
				spatial.Set(i, j, col[i]/norm)
			}
		}
	}

	// Temporal coefficients: a_j(t_k) = <u_k, φ_j>.
	temporal := linalg.NewDense(n, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += float64(snapshots[k][i] * spatial.At(i, j))
			}
			temporal.Set(k, j, s)
		}
	}

	r := &Result{
		Eigenvalues: vals,
		Spatial:     spatial,
		Temporal:    temporal,
		snapshots:   snapshots,
	}
	if opts.ForceCutoff > 0 {
		r.Cutoff = opts.ForceCutoff
		if r.Cutoff > n {
			r.Cutoff = n
		}
	} else {
		r.Cutoff = adaptiveCutoff(vals, opts.NoiseFactor)
	}
	return r, nil
}

// adaptiveCutoff separates the eigenspectrum by convergence rate: the noise
// floor is estimated as the median of the lower half of the spectrum, and
// modes whose eigenvalue exceeds factor*floor are attributed to correlated
// motion. At least one mode is always kept.
func adaptiveCutoff(vals []float64, factor float64) int {
	if factor <= 0 {
		factor = 5
	}
	// Numerically zero eigenvalues (rank deficiency: fewer bins than
	// snapshots, or noiseless synthetic data) are not part of the thermal
	// tail; exclude them before estimating the noise floor.
	rank := 0
	for _, v := range vals {
		if v > 1e-12*vals[0] {
			rank++
		}
	}
	if rank == 0 {
		return 1
	}
	live := vals[:rank]
	if rank < 4 {
		// Too few live modes to separate signal from noise statistically;
		// keep them all (noiseless synthetic case).
		return rank
	}
	// Median of the lower half of the live spectrum (flat thermal tail).
	lo := live[rank/2:]
	floor := lo[len(lo)/2]
	cutoff := 0
	for _, v := range live {
		if v > factor*floor {
			cutoff++
		} else {
			break
		}
	}
	if cutoff == 0 {
		cutoff = 1
	}
	return cutoff
}

// NumSnapshots returns the window length.
func (r *Result) NumSnapshots() int { return r.Temporal.Rows }

// FieldSize returns the snapshot length M.
func (r *Result) FieldSize() int { return r.Spatial.Rows }

// Reconstruct returns the rank-k reconstruction ū(t,x) = Σ_{j<k} a_j(t)
// φ_j(x); k <= 0 uses the adaptive cutoff. Row t is snapshot t's ensemble
// average.
func (r *Result) Reconstruct(k int) [][]float64 {
	if k <= 0 || k > len(r.Eigenvalues) {
		k = r.Cutoff
	}
	n := r.NumSnapshots()
	m := r.FieldSize()
	out := make([][]float64, n)
	for t := 0; t < n; t++ {
		row := make([]float64, m)
		for j := 0; j < k; j++ {
			a := r.Temporal.At(t, j)
			if a == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				row[i] += float64(a * r.Spatial.At(i, j))
			}
		}
		out[t] = row
	}
	return out
}

// Fluctuations returns u′(t,x) = u(t,x) - ū(t,x) using the adaptive cutoff:
// the thermal-fluctuation field whose PDF Figure 7 compares to a Gaussian.
func (r *Result) Fluctuations() [][]float64 {
	rec := r.Reconstruct(0)
	out := make([][]float64, len(rec))
	for t := range rec {
		row := make([]float64, len(rec[t]))
		for i := range row {
			row[i] = r.snapshots[t][i] - rec[t][i]
		}
		out[t] = row
	}
	return out
}

// Energy returns the total POD energy Σλ, which equals the mean snapshot
// energy <|u|²>.
func (r *Result) Energy() float64 {
	var s float64
	for _, v := range r.Eigenvalues {
		s += v
	}
	return s
}
