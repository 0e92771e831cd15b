package nektar3d

// SpoilFactor multiplies by 1.5 the smallest nonzero eigenvalue of the
// grid's x-axis fast-diagonalization factor: the Dirichlet one, which only
// the viscous Helmholtz solves use, or the natural one, which only the
// pressure Poisson solve uses. Those solves then no longer invert their
// operator. The eigenvalues are in descending order, and the natural
// factor's last is the constant mode's 0.
func SpoilFactor(g *Grid, dirichlet bool) {
	lam := g.arena().nat.ax[0].Lambda
	mode := len(lam) - 2
	if dirichlet {
		lam = g.arena().dir.ax[0].Lambda
		mode = len(lam) - 1
	}
	lam[mode] *= 1.5
}
