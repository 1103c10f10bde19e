package rls

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"mcs/internal/bloom"
)

// HTTP bindings for the RLS, so the Figure-2 scenario (MCS query → RLS
// lookup → GridFTP transfer) runs over real network services. The original
// RLS spoke a custom RPC protocol; JSON over HTTP carries the same
// operations.

// Server exposes one LRC and one RLI over HTTP:
//
//	POST /lrc/add      {"lfn": ..., "pfn": ...}
//	POST /lrc/remove   {"lfn": ..., "pfn": ...}
//	GET  /lrc/lookup?lfn=...
//	GET  /rli/query?lfn=...
//	POST /rli/update   {"lrc": ..., "lfns": [...], "bloom": {...}, "ttlSeconds": n}
//
// Either component may be nil to serve only the other role.
type Server struct {
	LRC *LRC
	RLI *RLI
	mux *http.ServeMux
}

// NewServer wires the HTTP handlers around the given components.
func NewServer(lrc *LRC, rli *RLI) *Server {
	s := &Server{LRC: lrc, RLI: rli, mux: http.NewServeMux()}
	if lrc != nil {
		s.mux.HandleFunc("/lrc/add", s.handleAdd)
		s.mux.HandleFunc("/lrc/remove", s.handleRemove)
		s.mux.HandleFunc("/lrc/lookup", s.handleLookup)
	}
	if rli != nil {
		s.mux.HandleFunc("/rli/query", s.handleQuery)
		s.mux.HandleFunc("/rli/update", s.handleUpdate)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

type mappingRequest struct {
	LFN string `json:"lfn"`
	PFN string `json:"pfn"`
}

type updateRequest struct {
	LRC        string        `json:"lrc"`
	LFNs       []string      `json:"lfns,omitempty"`
	Bloom      *bloom.Filter `json:"bloom,omitempty"`
	TTLSeconds int           `json:"ttlSeconds"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort response write
}

func readJSON(r *http.Request, v any) error {
	raw, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req mappingRequest
	if err := readJSON(r, &req); err != nil || req.LFN == "" || req.PFN == "" {
		http.Error(w, "bad mapping request", http.StatusBadRequest)
		return
	}
	s.LRC.Add(req.LFN, req.PFN)
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req mappingRequest
	if err := readJSON(r, &req); err != nil {
		http.Error(w, "bad mapping request", http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]bool{"ok": s.LRC.Remove(req.LFN, req.PFN)})
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	lfn := r.URL.Query().Get("lfn")
	writeJSON(w, map[string][]string{"pfns": s.LRC.Lookup(lfn)})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	lfn := r.URL.Query().Get("lfn")
	writeJSON(w, map[string][]string{"lrcs": s.RLI.Query(lfn)})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if err := readJSON(r, &req); err != nil || req.LRC == "" {
		http.Error(w, "bad update request", http.StatusBadRequest)
		return
	}
	ttl := time.Duration(req.TTLSeconds) * time.Second
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	if req.Bloom != nil {
		s.RLI.UpdateBloom(req.LRC, req.Bloom, ttl)
	} else {
		s.RLI.UpdateFull(req.LRC, req.LFNs, ttl)
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// Client talks to LRC/RLI HTTP endpoints.
type Client struct {
	Endpoint string
	HTTP     *http.Client
}

// NewClient returns a client for an RLS server at endpoint.
func NewClient(endpoint string) *Client {
	return &Client{Endpoint: endpoint, HTTP: &http.Client{Timeout: 15 * time.Second}}
}

func (c *Client) post(path string, req, resp any) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpResp, err := c.HTTP.Post(c.Endpoint+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return fmt.Errorf("rls: %s: %s: %s", path, httpResp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(httpResp.Body).Decode(resp)
}

func (c *Client) get(path string, resp any) error {
	httpResp, err := c.HTTP.Get(c.Endpoint + path)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("rls: GET %s: %s", path, httpResp.Status)
	}
	return json.NewDecoder(httpResp.Body).Decode(resp)
}

// AddMapping registers lfn → pfn in the remote LRC.
func (c *Client) AddMapping(lfn, pfn string) error {
	var resp map[string]bool
	return c.post("/lrc/add", mappingRequest{LFN: lfn, PFN: pfn}, &resp)
}

// RemoveMapping deletes a mapping from the remote LRC.
func (c *Client) RemoveMapping(lfn, pfn string) error {
	var resp map[string]bool
	return c.post("/lrc/remove", mappingRequest{LFN: lfn, PFN: pfn}, &resp)
}

// Lookup returns the physical locations of lfn at the remote LRC.
func (c *Client) Lookup(lfn string) ([]string, error) {
	var resp map[string][]string
	if err := c.get("/lrc/lookup?lfn="+queryEscape(lfn), &resp); err != nil {
		return nil, err
	}
	return resp["pfns"], nil
}

// QueryRLI returns the LRCs that may hold replicas of lfn.
func (c *Client) QueryRLI(lfn string) ([]string, error) {
	var resp map[string][]string
	if err := c.get("/rli/query?lfn="+queryEscape(lfn), &resp); err != nil {
		return nil, err
	}
	return resp["lrcs"], nil
}

// SendUpdate pushes a soft-state update to the remote RLI (full list when
// summary is nil).
func (c *Client) SendUpdate(lrcName string, lfns []string, summary *bloom.Filter, ttl time.Duration) error {
	var resp map[string]bool
	return c.post("/rli/update", updateRequest{
		LRC: lrcName, LFNs: lfns, Bloom: summary, TTLSeconds: int(ttl / time.Second),
	}, &resp)
}

// queryEscape is a minimal percent-encoder for query values.
func queryEscape(s string) string {
	const hex = "0123456789ABCDEF"
	var out []byte
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z', ch >= '0' && ch <= '9',
			ch == '-', ch == '_', ch == '.', ch == '~':
			out = append(out, ch)
		default:
			out = append(out, '%', hex[ch>>4], hex[ch&0xf])
		}
	}
	return string(out)
}
