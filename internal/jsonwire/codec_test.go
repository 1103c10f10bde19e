package jsonwire

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcs/internal/mcswire"
)

// The encoding's own tests: NDJSON framing. How a request moves through the
// server and client is the pipeline's business and is tested in
// internal/mcswire against every codec, this one included.

type row struct {
	Name string `json:"name"`
}

// stream frames what produce emits, then decodes the framed reply.
func stream(t *testing.T, produce func(emit func(any) error) *mcswire.WireError) (rows []string, body string, err error) {
	t.Helper()
	rec := httptest.NewRecorder()
	Codec{}.WriteStream(rec, produce)
	resp := rec.Result()
	body = rec.Body.String()
	if resp.StatusCode != http.StatusOK {
		return nil, body, Codec{}.ReadError(rec.Body.Bytes())
	}
	err = Codec{}.ReadStream("query", resp,
		func() any { return new(row) },
		func(r any) error { rows = append(rows, r.(*row).Name); return nil })
	return rows, body, err
}

func TestStreamTerminated(t *testing.T) {
	rows, body, err := stream(t, func(emit func(any) error) *mcswire.WireError {
		for _, n := range []string{"a", "b", "c"} {
			if err := emit(row{Name: n}); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	})
	if err != nil || strings.Join(rows, "") != "abc" {
		t.Fatalf("rows = %v, err = %v", rows, err)
	}
	if !strings.HasSuffix(body, "{\"end\":true}\n") || strings.Count(body, "\n") != 4 {
		t.Fatalf("framing = %q", body)
	}
}

// An error before the first row is an ordinary error reply; one mid-stream
// is an error line after the rows that made it out.
func TestStreamErrors(t *testing.T) {
	denied := &mcswire.WireError{Code: "Server.Denied", Message: "no"}

	rows, _, err := stream(t, func(func(any) error) *mcswire.WireError { return denied })
	var we *mcswire.WireError
	if !errors.As(err, &we) || *we != *denied || rows != nil {
		t.Fatalf("error before first row: rows = %v, err = %v", rows, err)
	}

	rows, body, err := stream(t, func(emit func(any) error) *mcswire.WireError {
		emit(row{Name: "a"}) //nolint:errcheck // recorder writes cannot fail
		return denied
	})
	if !errors.As(err, &we) || *we != *denied || len(rows) != 1 {
		t.Fatalf("error mid-stream: rows = %v, err = %v", rows, err)
	}
	if strings.Contains(body, `"end"`) {
		t.Fatalf("a failed stream was terminated: %q", body)
	}
}

// A stream that stops without its terminator was severed: the rows so far
// may be incomplete, and the caller must be told.
func TestStreamTruncated(t *testing.T) {
	resp := &http.Response{
		Status: "200 OK",
		Body:   io.NopCloser(strings.NewReader("{\"name\":\"a\"}\n{\"name\":\"b\"}\n")),
	}
	var rows []string
	err := Codec{}.ReadStream("query", resp,
		func() any { return new(row) },
		func(r any) error { rows = append(rows, r.(*row).Name); return nil })
	var te *mcswire.TransportError
	if !errors.As(err, &te) || !errors.Is(err, io.ErrUnexpectedEOF) || te.Status != "200 OK" {
		t.Fatalf("err = %v, want a TransportError carrying the status and ErrUnexpectedEOF", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows before the cut = %v", rows)
	}
}
