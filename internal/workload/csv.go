package workload

import (
	"cmp"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"revnf/internal/core"
)

// ErrBadCSV reports malformed trace CSV input.
var ErrBadCSV = errors.New("workload: malformed trace CSV")

// csvHeader is the canonical column set for request traces. The format is
// the bridge for real traces (the paper randomizes its workload from the
// Google cluster dataset [19]): map each job's submission time to a slot,
// its duration to slots, pick the VNF type, and derive payment from the
// job's priority or billing class.
var csvHeader = []string{"arrival", "duration", "vnf", "reliability", "payment"}

// ImportCSV reads a request trace from CSV with header
// "arrival,duration,vnf,reliability,payment". The vnf column accepts a
// catalog index or a VNF name. Rows are validated against the catalog and
// horizon, sorted by arrival, and re-numbered.
func ImportCSV(r io.Reader, catalog []core.VNF, horizon int) ([]core.Request, error) {
	if len(catalog) == 0 {
		return nil, fmt.Errorf("%w: empty catalog", ErrBadConfig)
	}
	byName := make(map[string]int, len(catalog))
	for _, f := range catalog {
		byName[strings.ToLower(f.Name)] = f.ID
	}
	reader := csv.NewReader(r)
	reader.TrimLeadingSpace = true
	header, err := reader.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadCSV, err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("%w: header %v, want %v", ErrBadCSV, header, csvHeader)
	}
	for i, want := range csvHeader {
		if strings.TrimSpace(strings.ToLower(header[i])) != want {
			return nil, fmt.Errorf("%w: column %d is %q, want %q", ErrBadCSV, i, header[i], want)
		}
	}
	var trace []core.Request
	for line := 2; ; line++ {
		record, err := reader.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadCSV, line, err)
		}
		arrival, err := strconv.Atoi(strings.TrimSpace(record[0]))
		if err != nil {
			return nil, fmt.Errorf("%w: line %d arrival %q", ErrBadCSV, line, record[0])
		}
		duration, err := strconv.Atoi(strings.TrimSpace(record[1]))
		if err != nil {
			return nil, fmt.Errorf("%w: line %d duration %q", ErrBadCSV, line, record[1])
		}
		vnf, err := resolveVNF(strings.TrimSpace(record[2]), catalog, byName)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadCSV, line, err)
		}
		reliability, err := strconv.ParseFloat(strings.TrimSpace(record[3]), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d reliability %q", ErrBadCSV, line, record[3])
		}
		payment, err := strconv.ParseFloat(strings.TrimSpace(record[4]), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d payment %q", ErrBadCSV, line, record[4])
		}
		trace = append(trace, core.Request{
			VNF:         vnf,
			Reliability: reliability,
			Arrival:     arrival,
			Duration:    duration,
			Payment:     payment,
		})
	}
	// Arrivals are not validated yet, so they may lie outside any range a
	// counting sort (ByArrival) needs; a comparison sort takes them as read.
	slices.SortStableFunc(trace, func(a, b core.Request) int { return cmp.Compare(a.Arrival, b.Arrival) })
	network := &core.Network{Catalog: catalog, Cloudlets: []core.Cloudlet{{ID: 0, Capacity: 1, Reliability: 0.5}}}
	for i := range trace {
		trace[i].ID = i
		if err := network.ValidateRequest(trace[i], horizon); err != nil {
			return nil, fmt.Errorf("%w: request %d: %v", ErrBadCSV, i, err)
		}
	}
	return trace, nil
}

func resolveVNF(field string, catalog []core.VNF, byName map[string]int) (int, error) {
	if id, err := strconv.Atoi(field); err == nil {
		if id < 0 || id >= len(catalog) {
			return 0, fmt.Errorf("VNF index %d of %d", id, len(catalog))
		}
		return id, nil
	}
	if id, ok := byName[strings.ToLower(field)]; ok {
		return id, nil
	}
	return 0, fmt.Errorf("unknown VNF %q", field)
}

// ExportCSV writes the trace in the canonical CSV format, with VNFs by
// name.
func ExportCSV(w io.Writer, catalog []core.VNF, trace []core.Request) error {
	writer := csv.NewWriter(w)
	if err := writer.Write(csvHeader); err != nil {
		return fmt.Errorf("workload: write CSV header: %w", err)
	}
	for _, r := range trace {
		if r.VNF < 0 || r.VNF >= len(catalog) {
			return fmt.Errorf("%w: request %d references VNF %d", ErrBadCSV, r.ID, r.VNF)
		}
		record := []string{
			strconv.Itoa(r.Arrival),
			strconv.Itoa(r.Duration),
			catalog[r.VNF].Name,
			strconv.FormatFloat(r.Reliability, 'g', -1, 64),
			strconv.FormatFloat(r.Payment, 'g', -1, 64),
		}
		if err := writer.Write(record); err != nil {
			return fmt.Errorf("workload: write CSV record: %w", err)
		}
	}
	writer.Flush()
	if err := writer.Error(); err != nil {
		return fmt.Errorf("workload: flush CSV: %w", err)
	}
	return nil
}
