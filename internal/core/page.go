package core

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"

	"mcs/internal/sqldb"
)

// Continuation tokens are stateless cursors: an opaque base64url encoding of
// the last logical name the server scanned (plus a phase prefix for
// collection listings). The server keeps nothing between pages, so tokens
// survive restarts and can be resumed against any replica holding the same
// data. Because authorization filtering happens after the page is cut, a
// page may come back shorter than pageSize — or even empty — while the
// token is still non-empty; iteration ends only when the returned token is
// the empty string.

// DefaultPageSize bounds paged results when the caller does not pick a size.
const DefaultPageSize = 1000

func encodePageToken(cursor string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursor))
}

func decodePageToken(token string) (string, error) {
	if token == "" {
		return "", nil
	}
	b, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return "", fmt.Errorf("%w: malformed page token", ErrInvalidInput)
	}
	return string(b), nil
}

// RunQueryPage is RunQuery with bounded results: it returns at most pageSize
// matching names (ordered by name) and a continuation token for the next
// page ("" when the scan is exhausted). Query.Limit is ignored in paged
// mode. pageSize <= 0 selects DefaultPageSize.
func (c *Catalog) RunQueryPage(dn string, q Query, pageSize int, token string) ([]string, string, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	after, err := decodePageToken(token)
	if err != nil {
		return nil, "", err
	}
	names, err := c.matchNames(q, after, pageSize)
	if err != nil {
		return nil, "", err
	}
	// The cursor advances over what was scanned, not what survives the
	// authorization filter below — otherwise a page of invisible names
	// would loop forever.
	next := ""
	if len(names) == pageSize {
		next = encodePageToken(names[len(names)-1])
	}
	names, _, err = c.readable(dn, q.Target, names)
	if err != nil {
		return nil, "", err
	}
	return names, next, nil
}

// QueryFilesPage is QueryFiles with bounded results: one page of matching
// names, expanded to full static metadata (all versions of each name).
func (c *Catalog) QueryFilesPage(dn string, q Query, pageSize int, token string) ([]File, string, error) {
	q.Target = ObjectFile
	names, next, err := c.RunQueryPage(dn, q, pageSize, token)
	if err != nil {
		return nil, "", err
	}
	files, err := c.versionsOf(dn, names)
	if err != nil {
		return nil, "", err
	}
	return files, next, nil
}

// Collection listing pages walk two phases under one cursor: first the
// sub-collections ("c|<last name>"), then the files ("f|<version>|<last
// name>" — files carry the version too, because several versions share one
// name and a page boundary may fall between them). A page may straddle the
// phase boundary.
const (
	pagePhaseCollections = "c|"
	pagePhaseFiles       = "f|"
)

// CollectionContentsPage is CollectionContents with bounded results. Each
// call returns up to pageSize entries (sub-collections first, then files,
// both ordered by name) and a continuation token ("" when done).
func (c *Catalog) CollectionContentsPage(dn, name string, pageSize int, token string) (files []File, subs []Collection, next string, err error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	col, err := c.GetCollection(dn, name)
	if err != nil {
		return nil, nil, "", err
	}
	cursor, err := decodePageToken(token)
	if err != nil {
		return nil, nil, "", err
	}
	phase, after, afterVersion := pagePhaseCollections, "", 0
	switch {
	case cursor == "":
	case strings.HasPrefix(cursor, pagePhaseCollections):
		after = cursor[len(pagePhaseCollections):]
	case strings.HasPrefix(cursor, pagePhaseFiles):
		phase = pagePhaseFiles
		rest := cursor[len(pagePhaseFiles):]
		sep := strings.IndexByte(rest, '|')
		if sep < 0 {
			return nil, nil, "", fmt.Errorf("%w: malformed page token", ErrInvalidInput)
		}
		v, verr := strconv.Atoi(rest[:sep])
		if verr != nil {
			return nil, nil, "", fmt.Errorf("%w: malformed page token", ErrInvalidInput)
		}
		after, afterVersion = rest[sep+1:], v
	default:
		return nil, nil, "", fmt.Errorf("%w: malformed page token", ErrInvalidInput)
	}

	budget := pageSize
	if phase == pagePhaseCollections {
		crows, err := c.db.Query(fmt.Sprintf(
			"SELECT "+collectionColumns+" FROM logical_collection WHERE parent_id = ? AND name > ? ORDER BY name LIMIT %d",
			budget), sqldb.Int(col.ID), sqldb.Text(after))
		if err != nil {
			return nil, nil, "", err
		}
		for _, row := range crows.Data {
			subs = append(subs, scanCollection(row))
		}
		if len(subs) == budget {
			return nil, subs, encodePageToken(pagePhaseCollections + subs[len(subs)-1].Name), nil
		}
		// Sub-collections exhausted: spend the rest of the page on files,
		// starting from the top of the file listing.
		budget -= len(subs)
		after, afterVersion = "", 0
	}
	frows, err := c.db.Query(fmt.Sprintf(
		"SELECT "+fileColumns+` FROM logical_file
		 WHERE collection_id = ? AND (name > ? OR (name = ? AND version > ?))
		 ORDER BY name, version LIMIT %d`, budget),
		sqldb.Int(col.ID), sqldb.Text(after), sqldb.Text(after), sqldb.Int(int64(afterVersion)))
	if err != nil {
		return nil, nil, "", err
	}
	for _, row := range frows.Data {
		files = append(files, scanFile(row))
	}
	if len(files) == budget {
		last := files[len(files)-1]
		next = encodePageToken(fmt.Sprintf("%s%d|%s", pagePhaseFiles, last.Version, last.Name))
	}
	return files, subs, next, nil
}
