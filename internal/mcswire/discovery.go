package mcswire

import "encoding/xml"

// DiscoverySummaryRequest asks a catalog for its soft-state discovery
// summary (the federation bloom filter plus defined attribute names). The
// shard router polls this periodically to screen scatter queries; FP is the
// requested bloom false-positive rate (0 means the server default).
type DiscoverySummaryRequest struct {
	XMLName xml.Name `xml:"urn:mcs discoverySummary" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	FP      float64  `xml:"fp,omitempty" json:"fp,omitempty"`
}

// DiscoverySummaryResponse carries one federation.Summary; federation's
// Encode and Decode are the only code that writes and reads it. Catalog is
// always empty (the puller knows whom it asked) but stays on the wire, so
// the reply's bytes do not change.
type DiscoverySummaryResponse struct {
	XMLName xml.Name `xml:"urn:mcs discoverySummaryResponse" json:"-"`
	Catalog string   `xml:"catalog" json:"catalog"`
	Attrs   []string `xml:"attrs>attr,omitempty" json:"attrs,omitempty"`
	Pairs   string   `xml:"pairs" json:"pairs"`
	Objects int      `xml:"objects" json:"objects"`
}
