package sqldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frames are the one container both on-disk streams are made of — a
// write-ahead-log record is a frame, and so is every piece of a snapshot:
//
//	+----------+----------+--------------------------------------+
//	| len (4B) | crc (4B) | payload (len bytes)                  |
//	+----------+----------+--------------------------------------+
//
// Both header fields are big-endian; the CRC32 (IEEE) covers the payload, so
// a reader tells a torn or scribbled frame from a whole one without trusting
// anything inside it. What damage means is the stream's business: the log
// cuts itself back to its last whole record, a snapshot is refused.

// frameHeaderSize is the fixed per-frame header: length + CRC32.
const frameHeaderSize = 8

// maxFrameSize bounds a single frame's payload; a length field above it is
// treated as corruption.
const maxFrameSize = 1 << 28

// errFrameDamaged marks a frame that is not whole on disk (short, absurd
// length, checksum mismatch), as opposed to an I/O error reading it.
var errFrameDamaged = errors.New("damaged")

// beginFrame appends an unsealed frame header to b. The caller appends the
// payload behind it and seals the frame with endFrame.
func beginFrame(b []byte) []byte {
	return append(b, make([]byte, frameHeaderSize)...)
}

// endFrame seals the frame whose header starts at b[start] and whose payload
// is the rest of b.
func endFrame(b []byte, start int) {
	payload := b[start+frameHeaderSize:]
	binary.BigEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
}

// frameReader reads a stream of frames. It holds one payload at a time in a
// buffer it reuses, whatever the stream's length.
type frameReader struct {
	r   io.Reader
	off int64 // stream offset of the frame the last call to next returned or choked on
	end int64 // stream offset just past the last whole frame
	buf bytes.Buffer
}

// next returns the next frame's payload, valid until the following call. The
// error is io.EOF at a clean end of stream, one wrapping errFrameDamaged for
// a frame that is not whole, or the reader's own.
func (fr *frameReader) next() ([]byte, error) {
	fr.off = fr.end
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: header cut short", errFrameDamaged)
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[0:4]))
	if n == 0 || n > maxFrameSize {
		return nil, fmt.Errorf("%w: length %d", errFrameDamaged, n)
	}
	// The buffer grows as bytes arrive, not by what the length claims: a
	// scribbled length hits the end of the stream first.
	fr.buf.Reset()
	if _, err := io.CopyN(&fr.buf, fr.r, int64(n)); err == io.EOF {
		return nil, fmt.Errorf("%w: payload cut short, %d bytes promised", errFrameDamaged, n)
	} else if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(fr.buf.Bytes()) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", errFrameDamaged)
	}
	fr.end = fr.off + frameHeaderSize + int64(n)
	return fr.buf.Bytes(), nil
}
