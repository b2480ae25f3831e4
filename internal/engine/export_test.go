package engine

// PartitionValid is partitionValid for the external test package, whose
// local-engine fuzzer drives engines through the consistency oracle.
func PartitionValid(e *Local) error { return partitionValid(&e.driver) }
