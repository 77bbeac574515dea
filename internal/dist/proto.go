package dist

import (
	"encoding/json"

	"tevot/internal/obs"
)

// Wire types for the coordinator's HTTP surface. Every request is a
// small JSON POST; responses reuse internal/serve's envelope helpers.
//
//	POST /v1/register  registerRequest  -> registerResponse
//	GET  /v1/spec                       -> Spec
//	POST /v1/lease     leaseRequest     -> leaseResponse
//	POST /v1/renew     renewRequest     -> renewResponse (410 if gone)
//	POST /v1/result    resultRequest    -> resultResponse (409 on divergence)
//	GET  /progress                      -> Progress
//
// Status strings rather than HTTP codes carry the normal-path protocol
// (granted / none / done / accepted / duplicate) so a worker's control
// flow never parses numeric codes; HTTP error codes are reserved for
// the exceptional paths (410 lease gone, 409 aborted, 429 shed).

// protocolVersion is the wire protocol this build's coordinator and
// workers speak. The coordinator refuses at register a worker that
// sends another version, or none (builds before the field), so a worker
// of another build exits before it computes a cell whose result the
// coordinator would refuse. Bump it with any change to the wire types
// (2: Spec lost shard_workers; each worker sizes its own shards).
const protocolVersion = 2

type registerRequest struct {
	Worker  string `json:"worker"`
	Version int    `json:"version"`
}

type registerResponse struct {
	Spec Spec `json:"spec"`
	// ReleasedLeases counts leases of this worker's previous incarnation
	// that re-registration returned to the pool (worker was restarted).
	ReleasedLeases int `json:"released_leases"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
}

const (
	leaseGranted = "granted" // work attached
	leaseNone    = "none"    // nothing grantable now; retry after RetryMS
	leaseDone    = "done"    // sweep complete; worker should exit
)

type leaseResponse struct {
	Status      string `json:"status"` // granted | none | done
	LeaseID     string `json:"lease_id,omitempty"`
	Cell        *Cell  `json:"cell,omitempty"`
	TTLMS       int64  `json:"ttl_ms,omitempty"`
	Speculative bool   `json:"speculative,omitempty"`
	RetryMS     int64  `json:"retry_ms,omitempty"`
}

type renewRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
	// Metrics piggybacks the worker's registry snapshot on the heartbeat
	// so the coordinator can serve fleet-wide telemetry without opening
	// a connection back to each worker (workers may be NAT'd).
	Metrics *obs.RegistrySnapshot `json:"metrics,omitempty"`
}

type renewResponse struct {
	TTLMS int64 `json:"ttl_ms"`
}

type resultRequest struct {
	Worker  string          `json:"worker"`
	LeaseID string          `json:"lease_id"`
	Key     string          `json:"key"`
	Value   json.RawMessage `json:"value"`
	Hash    string          `json:"hash"` // sha256 of Value bytes
	// Metrics rides the result upload too: a snapshot taken after the
	// cell's counters were bumped, so an accepted result is always
	// covered by a coordinator-held snapshot even if the worker dies
	// before its next heartbeat.
	Metrics *obs.RegistrySnapshot `json:"metrics,omitempty"`
}

const (
	resultAccepted  = "accepted"
	resultDuplicate = "duplicate"
)

type resultResponse struct {
	Status string `json:"status"` // accepted | duplicate
}

// WorkerProgress is one worker's row in the coordinator's /progress.
type WorkerProgress struct {
	ID         string   `json:"id"`
	Generation int      `json:"generation"`
	LeasesHeld int      `json:"leases_held"`
	CellsDone  int      `json:"cells_done"`
	Duplicates int      `json:"duplicates"`
	LastSeenMS int64    `json:"last_seen_ms_ago"`
	Leases     []string `json:"leases,omitempty"`
	// Metrics is the worker's last piggybacked registry snapshot (nil
	// until the first renew/result carries one).
	Metrics *obs.RegistrySnapshot `json:"metrics,omitempty"`
}

// Progress is the coordinator's live state, served at /progress and
// fed to obs run manifests.
type Progress struct {
	Sweep      string  `json:"sweep"`
	Cells      int     `json:"cells"`
	Done       int     `json:"done"`
	Leased     int     `json:"leased"`
	Pending    int     `json:"pending"`
	Resumed    int     `json:"resumed"`
	Duplicates int     `json:"duplicates"`
	Reissues   int     `json:"reissues"`
	ElapsedSec float64 `json:"elapsed_sec"`
	ETASec     float64 `json:"eta_sec,omitempty"`
	// SlowestCell is the completed cell with the longest lease-to-result
	// time and SlowestSec that time, in seconds ("" and 0 until a leased
	// cell completes).
	SlowestCell string           `json:"slowest_cell,omitempty"`
	SlowestSec  float64          `json:"slowest_sec,omitempty"`
	Aborted     bool             `json:"aborted,omitempty"`
	Divergence  *Divergence      `json:"divergence,omitempty"`
	Workers     []WorkerProgress `json:"workers"`
}
