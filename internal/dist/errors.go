package dist

import "errors"

// ErrPeerDown means a link's connection ended: a read or write failed, the
// peer closed it, or it stayed silent past the peer timeout (link.go). There
// is no reconnect. The contract is fail-stop: the coordinator treats the
// worker as having left and re-runs the batch on the survivors, and the
// worker's RunWorker returns so a supervisor can restart it onto its WAL.
var ErrPeerDown = errors.New("dist: peer down (connection lost or silent past the peer timeout)")

// ErrNoWorkers means the cluster has no live worker left to run a batch on.
var ErrNoWorkers = errors.New("dist: no live workers")

// ErrBatchTimeout means a batch failed to quiesce within the configured
// hard deadline — the fail-fast guard a hung cluster trips in CI instead of
// wedging the run.
var ErrBatchTimeout = errors.New("dist: batch deadline exceeded")
