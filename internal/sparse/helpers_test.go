package sparse

// refactor and refactorBlocked are the allocating conveniences the tests
// use over the production Into kernels: fresh factors and a fresh
// workspace per call.
func refactor(s *Symbolic, a *CSC) (*LUFactors, error) {
	f := &LUFactors{}
	if err := s.RefactorInto(f, s.NewRefactorWorkspace(), a); err != nil {
		return nil, err
	}
	return f, nil
}

func refactorBlocked(s *Symbolic, a *CSC) (*LUFactors, error) {
	f := &LUFactors{}
	if err := s.RefactorBlockedInto(f, s.NewRefactorWorkspace(), a); err != nil {
		return nil, err
	}
	return f, nil
}
