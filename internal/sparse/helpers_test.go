package sparse

// refactor is the allocating convenience the tests use over the
// production RefactorInto: fresh factors and a fresh workspace per call.
func refactor(s *Symbolic, a *CSC) (*LUFactors, error) {
	f := &LUFactors{}
	if err := s.RefactorInto(f, s.NewRefactorWorkspace(), a); err != nil {
		return nil, err
	}
	return f, nil
}
