package service

import (
	"fmt"
	"net/http"
)

// Every error the API returns carries a structured envelope:
//
//	{"error": {"code": "<stable-slug>", "message": "...", "retryAfterMs": ...}}
//
// The code is the machine contract: clients (and the stress harness's
// assertions) branch on it, never on message substrings, so messages
// stay free to improve. Codes are append-only — renaming or removing
// one is a breaking API change, pinned by TestErrorCodeCatalog.
const (
	// Decoding and transport.
	codeBadJSON      = "bad-json"       // malformed or unknown-field request body
	codeBodyTooLarge = "body-too-large" // request body exceeds MaxBodyBytes

	// Graph creation.
	codeConflictingInput = "conflicting-input" // both kind and format given
	codeMissingInput     = "missing-input"     // neither kind nor format given
	codeUnknownFormat    = "unknown-format"    // upload format not snap/mtx/metis
	codeParseFailed      = "parse-failed"      // upload did not parse
	codeUnknownKind      = "unknown-kind"      // generator kind not in graph.Kinds
	codeNOutOfRange      = "n-out-of-range"    // generated size outside [2, MaxVertices]
	codeEmptyGraph       = "empty-graph"       // parsed graph has no vertices
	codeGraphTooLarge    = "graph-too-large"   // parsed graph exceeds MaxVertices
	codeStoreFull        = "store-full"        // version budget (MaxGraphs) exhausted

	// Graph lookup and mutation.
	codeGraphNotFound   = "graph-not-found"  // unknown graph or version reference
	codeInvalidDelta    = "invalid-delta"    // patch batch failed validation
	codeEmptyDelta      = "empty-delta"      // patch with no inserts and no deletes
	codeVersionConflict = "version-conflict" // pinned parent is no longer the head
	codeBadPage         = "bad-page"         // non-numeric or negative paging params

	// Run validation.
	codeUnknownKernel     = "unknown-kernel"
	codeUnknownPlatform   = "unknown-platform"
	codeUnknownStrategy   = "unknown-strategy"
	codeThreadsOutOfRange = "threads-out-of-range"
	codeUnknownOrder      = "unknown-order"       // order not none/auto/degree/rcm
	codeBadParams         = "bad-params"          // negative iters/maxPasses/delta/timeoutMs
	codeSimThreadOverflow = "sim-thread-overflow" // threads exceed simulated cores
	codeCitiesOutOfRange  = "cities-out-of-range" // TSP cities outside [3, 20]
	codeSourceOutOfRange  = "source-out-of-range"
	codeTargetOutOfRange  = "target-out-of-range"
	codeDenseTooLarge     = "dense-too-large" // graph too big for O(N²) kernels
	// simCores not a square mesh sim.Config.Validate accepts, or above
	// the 256-core Table II machine.
	codeSimCoresOutOfRange = "sim-cores-out-of-range"

	// Run execution.
	codeSaturated    = "saturated"     // worker pool full; body carries retryAfterMs
	codeDeadline     = "deadline"      // run exceeded its deadline
	codeCanceled     = "canceled"      // client went away
	codeShuttingDown = "shutting-down" // pool closed during shutdown
	codeInternal     = "internal"      // unexpected kernel/platform failure
)

// errorBody is the wire form of one error.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs mirrors the Retry-After header on saturated responses
	// so clients that only read bodies still back off correctly.
	RetryAfterMs int `json:"retryAfterMs,omitempty"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: errorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// writeSaturated sheds one request with the 429 + Retry-After contract,
// mirrored into the structured body.
func writeSaturated(w http.ResponseWriter, retryAfterSec int) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSec))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: errorBody{
		Code:         codeSaturated,
		Message:      "worker pool saturated, retry later",
		RetryAfterMs: retryAfterSec * 1000,
	}})
}
