package engine

// FlowGraphExact is flowGraphExact for the external test package, whose
// local-engine fuzzer drives engines through the consistency oracle.
func FlowGraphExact(e *Local) error { return flowGraphExact(&e.driver) }
