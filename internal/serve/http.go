package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"revnf/internal/core"
	"revnf/internal/trace"
)

// HTTP wire shapes. Kept separate from the engine types so the JSON field
// names stay stable independent of Go identifiers; an assignment and a
// shared placement's backup group are core's own types, whose JSON tags
// are the wire's.

type placementDTO struct {
	Scheme       string            `json:"scheme"`
	Assignments  []core.Assignment `json:"assignments"`
	Availability float64           `json:"availability"`
	// BackupGroup is present only for shared-scheme placements: the pooled
	// backup instance this placement joined — the group id, the cloudlet
	// hosting it, and the pool capacity k the availability was validated
	// against.
	BackupGroup *core.SharedBackup `json:"backup_group,omitempty"`
}

type decisionDTO struct {
	ID        int           `json:"id"`
	Admitted  bool          `json:"admitted"`
	Reason    string        `json:"reason,omitempty"`
	Slot      int           `json:"slot"`
	Placement *placementDTO `json:"placement,omitempty"`
}

type placementRecordDTO struct {
	ID          int     `json:"id"`
	State       string  `json:"state"`
	VNF         int     `json:"vnf"`
	Reliability float64 `json:"reliability"`
	Arrival     int     `json:"arrival"`
	Duration    int     `json:"duration"`
	Payment     float64 `json:"payment"`
	DecidedSlot int     `json:"decided_slot"`
	// WindowBase is the ledger window base at read time (1 in fixed
	// mode); ArrivalOffset is Arrival - WindowBase, the window-relative
	// position of the placement's first slot (negative once the base has
	// advanced past it).
	WindowBase    int           `json:"window_base"`
	ArrivalOffset int           `json:"arrival_offset"`
	Placement     *placementDTO `json:"placement"`
}

// placementHealthDTO reports the failure runtime's SLO account for one
// admitted placement.
type placementHealthDTO struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	// Scheme is the redundancy scheme the placement runs; BackupGroup is
	// present for shared placements, tying the health account to the pooled
	// backup whose failures it shares with its group peers.
	Scheme      string             `json:"scheme,omitempty"`
	BackupGroup *core.SharedBackup `json:"backup_group,omitempty"`
	// Required is the request's reliability requirement R; Provisioned the
	// availability promised at admission; Observed the delivered fraction
	// of scored slots with live service.
	Required    float64 `json:"required"`
	Provisioned float64 `json:"provisioned"`
	Observed    float64 `json:"observed"`
	// WindowSlots is the request window; ObservedSlots how many of them
	// the failure runtime has scored so far.
	WindowSlots   int `json:"window_slots"`
	ObservedSlots int `json:"observed_slots"`
	UpSlots       int `json:"up_slots"`
	DownSlots     int `json:"down_slots"`
	// Repairs counts successful re-placements; RepairLatencySlots the
	// summed slots their failure episodes stayed open.
	Repairs            int `json:"repairs"`
	RepairLatencySlots int `json:"repair_latency_slots"`
	// Degraded marks an exhausted repair budget or a window that ended
	// below Required; SLOMet whether delivery currently meets Required.
	Degraded bool `json:"degraded"`
	SLOMet   bool `json:"slo_met"`
	// WindowBase is the ledger window base at read time (1 in fixed
	// mode), anchoring the absolute slot numbers above.
	WindowBase int `json:"window_base"`
}

// placementHealth reads a placement's SLO account, its record and the
// window base in one critical section, so a tick cannot fall between the
// reads and pair a record it marked degraded with an account it had not
// yet scored. A record in the history's spill file is read after the lock
// is released: its placement has expired, so neither changes again. ok is
// false when the placement has no account. Chaos must be on.
func (e *Engine) placementHealth(id int) (placementHealthDTO, bool) {
	e.mu.Lock()
	entry, ok := e.runtime.slo.Get(id)
	rec, cold, found := e.book.lookup(id, e.slot)
	base := e.ledger.Base()
	e.mu.Unlock()
	if !ok {
		return placementHealthDTO{}, false
	}
	if cold != nil {
		rec, found = cold()
	}
	h := placementHealthDTO{
		ID:                 entry.ID,
		Required:           entry.Required,
		Provisioned:        entry.Provisioned,
		Observed:           entry.Observed(),
		WindowSlots:        entry.WindowSlots,
		ObservedSlots:      entry.ObservedSlots,
		UpSlots:            entry.UpSlots,
		DownSlots:          entry.DownSlots,
		Repairs:            entry.Repairs,
		RepairLatencySlots: entry.RepairLatencySlots,
		Degraded:           entry.Degraded,
		SLOMet:             entry.Met(),
		WindowBase:         base,
	}
	if found {
		h.State = string(rec.State)
		h.Scheme = rec.Placement.Scheme.String()
		h.BackupGroup = rec.Placement.Backup
		// An open account leaves the degraded mark to the record.
		h.Degraded = h.Degraded || rec.State == StateDegraded
	}
	return h, true
}

// errorDTO is the v1 error envelope, used by every endpoint: code repeats
// the HTTP status, reason is a machine-readable code from the trace.Reason
// vocabulary (the same enum decision traces and the rejection metrics
// use), and detail is an optional human-readable elaboration.
type errorDTO struct {
	Code   int    `json:"code"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
}

// writeError sends the v1 error envelope.
func writeError(w http.ResponseWriter, status int, reason, detail string) {
	writeJSON(w, status, errorDTO{Code: status, Reason: reason, Detail: detail})
}

// NewHandler exposes the engine over HTTP/JSON (API version v1):
//
//	POST /v1/requests            admit or reject one request (503 on backpressure)
//	GET  /v1/placements/{id}     look up an admitted placement
//	GET  /v1/placements/{id}/health SLO account under the failure runtime (chaos on)
//	GET  /v1/decisions/{id}/trace decision trace for a request (tracing on)
//	GET  /v1/cloudlets           residual capacity per cloudlet per slot
//	GET  /healthz                liveness (503 once shutdown begins)
//	GET  /metrics                Prometheus text exposition
//
// Every error response carries the JSON envelope
// {"code": <http status>, "reason": "<machine code>", "detail": "..."};
// the reason values are the trace.Reason vocabulary.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/requests", func(w http.ResponseWriter, r *http.Request) {
		var ar AdmissionRequest
		// The stream path's line bound holds here too: json.Decoder buffers
		// a whole value, so an unbounded body is held in memory entire.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, streamBufSize))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ar); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, ReasonInvalid, fmt.Sprintf("request body over %d bytes", tooLarge.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, ReasonInvalid, fmt.Sprintf("decode request: %v", err))
			return
		}
		e.ingest.jsonReqs.Add(1)
		var decided [1]AdmissionResult
		err := e.SubmitBatch(r.Context(), []AdmissionRequest{ar}, decided[:])
		res := decided[0]
		switch {
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, ReasonClosed, "engine shutting down")
			return
		case err != nil: // context cancellation: the client went away
			writeError(w, http.StatusServiceUnavailable, ReasonCanceled, err.Error())
			return
		case res.Reason == ReasonQueueFull:
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, ReasonQueueFull, "ingest queue at capacity")
			return
		}
		out := decisionDTO{ID: res.ID, Admitted: res.Admitted, Reason: res.Reason, Slot: res.Slot}
		if res.Admitted {
			arrival := ar.Arrival
			if arrival == 0 {
				arrival = res.Slot
			}
			req := core.Request{ID: res.ID, VNF: ar.VNF, Reliability: ar.Reliability,
				Arrival: arrival, Duration: ar.Duration, Payment: ar.Payment}
			out.Placement = toPlacementDTO(e.Network(), req, res.Placement)
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/placements/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, ReasonInvalid, "placement id must be an integer")
			return
		}
		rec, ok := e.Placement(id)
		if !ok {
			writeError(w, http.StatusNotFound, string(trace.ReasonNotFound), fmt.Sprintf("no placement %d", id))
			return
		}
		base := e.WindowBase()
		writeJSON(w, http.StatusOK, placementRecordDTO{
			ID:            rec.ID,
			State:         string(rec.State),
			VNF:           rec.Request.VNF,
			Reliability:   rec.Request.Reliability,
			Arrival:       rec.Request.Arrival,
			Duration:      rec.Request.Duration,
			Payment:       rec.Request.Payment,
			DecidedSlot:   rec.DecidedSlot,
			WindowBase:    base,
			ArrivalOffset: rec.Request.Arrival - base,
			Placement:     toPlacementDTO(e.Network(), rec.Request, rec.Placement),
		})
	})

	mux.HandleFunc("GET /v1/placements/{id}/health", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, ReasonInvalid, "placement id must be an integer")
			return
		}
		if !e.chaos {
			writeError(w, http.StatusNotFound, string(trace.ReasonNotFound),
				"failure runtime is disabled (start revnfd with -chaos)")
			return
		}
		health, ok := e.placementHealth(id)
		if !ok {
			writeError(w, http.StatusNotFound, string(trace.ReasonNotFound), fmt.Sprintf("no SLO account for placement %d", id))
			return
		}
		writeJSON(w, http.StatusOK, health)
	})

	mux.HandleFunc("GET /v1/decisions/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, ReasonInvalid, "decision id must be an integer")
			return
		}
		store := e.Traces()
		if store == nil {
			writeError(w, http.StatusNotFound, string(trace.ReasonNotFound),
				"decision tracing is disabled (start revnfd with -trace)")
			return
		}
		dt, ok := store.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, string(trace.ReasonNotFound),
				fmt.Sprintf("no trace for decision %d (not sampled, or evicted from the ring)", id))
			return
		}
		writeJSON(w, http.StatusOK, dt)
	})

	mux.HandleFunc("GET /v1/cloudlets", func(w http.ResponseWriter, r *http.Request) {
		mode := "fixed"
		if e.Rolling() {
			mode = "rolling"
		}
		writeJSON(w, http.StatusOK, struct {
			Slot int `json:"slot"`
			// Horizon is the fixed T or the rolling window width; the live
			// window is [window_base, window_base+horizon-1].
			Horizon     int    `json:"horizon"`
			HorizonMode string `json:"horizon_mode"`
			WindowBase  int    `json:"window_base"`
			WindowSize  int    `json:"window_size"`
			// AdmittedByScheme counts admissions per redundancy scheme over
			// the engine's lifetime, keyed by scheme display name. Absent
			// until the first admission.
			AdmittedByScheme map[string]uint64 `json:"admitted_by_scheme,omitempty"`
			Cloudlets        []CloudletStatus  `json:"cloudlets"`
		}{Slot: e.Slot(), Horizon: e.Horizon(), HorizonMode: mode,
			WindowBase: e.WindowBase(), WindowSize: e.Horizon(),
			AdmittedByScheme: e.Stats().AdmittedByScheme, Cloudlets: e.Cloudlets()})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if e.Closed() {
			writeError(w, http.StatusServiceUnavailable, ReasonClosed, "shutting down")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := e.WriteMetrics(w); err != nil {
			writeError(w, http.StatusInternalServerError, string(trace.ReasonInternal), err.Error())
		}
	})

	return mux
}

func toPlacementDTO(n *core.Network, req core.Request, p core.Placement) *placementDTO {
	return &placementDTO{
		Scheme:       p.Scheme.String(),
		Assignments:  p.Assignments,
		Availability: p.Availability(n, req),
		BackupGroup:  p.Backup,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	// Encoding failures past WriteHeader cannot be reported to the client.
	_ = json.NewEncoder(w).Encode(v)
}
