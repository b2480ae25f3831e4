package dist

import "errors"

// ErrPeerDown is the typed degradation signal of the reliable link layer
// (link.go): a sender that has exhausted its capped retransmission retries,
// or a link whose heartbeats have timed out past the reconnect grace, stops
// retransmitting forever and surfaces this error instead. The caller's
// contract is fail-stop conversion: treat the peer as crashed, reset the
// link, and let the membership/recovery machinery reconstruct whatever the
// abandoned retransmissions would have carried.
var ErrPeerDown = errors.New("dist: peer down (retries exhausted or heartbeat timeout)")

// ErrNoWorkers means the cluster has no live worker left to run a batch on.
var ErrNoWorkers = errors.New("dist: no live workers")

// ErrBatchTimeout means a batch failed to quiesce within the configured
// hard deadline — the fail-fast guard a hung cluster trips in CI instead of
// wedging the run.
var ErrBatchTimeout = errors.New("dist: batch deadline exceeded")
