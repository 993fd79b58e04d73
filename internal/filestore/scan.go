package filestore

import (
	"bytes"
	"errors"
	"io"
	"strings"
)

// blockBytes is how much of an on-disk file one read brings in.
const blockBytes = 64 << 10

var (
	errBareQuote = errors.New(`bare " in an unquoted field`)
	errQuote     = errors.New(`extraneous or missing " in a quoted field`)
	// errOpenQuote is errQuote where the text ended inside the quotes:
	// final only when the text ends the input.
	errOpenQuote = errors.New(`unterminated quoted field`)
)

// records splits comma-separated text into records, RFC 4180 as
// encoding/csv reads it: "\n" or "\r\n" ends a record and a lone "\r"
// before the end of input is dropped; empty lines are skipped; a field
// that opens with a quote runs to the quote no quote follows, may span
// lines (its "\r\n" read as "\n") and hold "" for a quote, and only a
// comma or the end of the record may follow it; a quote anywhere
// in a field that did not open with one is an error. Nothing counts the
// fields: that is the caller's schema to do.
//
// The text is immutable — a registered table's data as it stands, or an
// on-disk file one block at a time, each block its own string — and a
// field is a substring of it, so splitting allocates nothing and a field
// somebody keeps stays valid, pinning the text it was cut from. Only a
// quoted field that holds "" or "\r\n" is built.
type records struct {
	text   string
	pos    int      // text[pos:] is not split yet
	last   bool     // text ends the input
	fields []string // of the record split last, overwritten by the next

	// An on-disk file: buf[:n] is what was read and not yet given up, and
	// text is a copy of its head — up to the last newline, so that inside
	// text a record reaches the end only within quotes.
	in    io.Reader
	buf   []byte
	n     int
	block int
}

// next splits the next record. Its fields are valid as strings for good
// and as a slice until the call after; io.EOF ends the input.
func (s *records) next() ([]string, error) {
	for {
		end, err := s.split()
		if (err == io.EOF || err == errOpenQuote) && !s.last {
			if err := s.fill(); err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		s.pos = end
		return s.fields, nil
	}
}

// fill replaces text with what of the block is not split yet — a record
// the block's end cut short, or nothing — and what one read adds to it:
// the rest of a block, or as much again as is carried over when that is
// more, so a record longer than a block doubles the text until it fits
// and the block after is a block again.
func (s *records) fill() error {
	rest := copy(s.buf, s.buf[s.pos:s.n])
	for {
		want := max(s.block, 2*rest)
		if len(s.buf) < want {
			s.buf = append(make([]byte, 0, want), s.buf[:rest]...)[:want]
		}
		m, err := io.ReadFull(s.in, s.buf[rest:want])
		s.n = rest + m
		cut := s.n
		switch err {
		case nil:
			if cut = bytes.LastIndexByte(s.buf[:s.n], '\n') + 1; cut == 0 {
				rest = s.n
				continue // not one whole line yet
			}
		case io.EOF, io.ErrUnexpectedEOF:
			s.last = true
		default:
			return err
		}
		s.text, s.pos = string(s.buf[:cut]), 0
		return nil
	}
}

// split cuts the record at text[pos:] into fields, reading text as the
// whole input, and returns where the next record starts. io.EOF: only
// empty lines were left.
func (s *records) split() (end int, err error) {
	t, p := s.text, s.pos
	for p < len(t) {
		if t[p] == '\n' {
			p++
		} else if t[p] == '\r' && p+1 < len(t) && t[p+1] == '\n' {
			p += 2
		} else {
			break
		}
	}
	if p == len(t) || t[p:] == "\r" {
		return len(t), io.EOF
	}
	s.fields = s.fields[:0]
	for {
		if t[p] == '"' {
			field, after, ok := quoted(t, p+1)
			if !ok {
				return 0, errOpenQuote
			}
			s.fields = append(s.fields, field)
			p = after
			switch rest := t[p:]; {
			case rest == "" || rest == "\r":
				return len(t), nil
			case rest[0] == ',':
				p++
			case rest[0] == '\n':
				return p + 1, nil
			case strings.HasPrefix(rest, "\r\n"):
				return p + 2, nil
			default:
				return 0, errQuote
			}
		} else {
			start := p
			for ; p < len(t) && t[p] != '\n'; p++ {
				if t[p] == '"' {
					return 0, errBareQuote
				}
				if t[p] == ',' {
					break
				}
			}
			if p < len(t) && t[p] != '\n' {
				s.fields = append(s.fields, t[start:p])
				p++
			} else {
				end = min(p+1, len(t))
				if p > start && t[p-1] == '\r' {
					p-- // of "\r\n", or the last byte of the input
				}
				s.fields = append(s.fields, t[start:p])
				return end, nil
			}
		}
		if p == len(t) {
			// The comma was the last thing in the input.
			s.fields = append(s.fields, "")
			return p, nil
		}
	}
}

// unquote rewrites what stands between a field's quotes into what it
// means.
var unquote = strings.NewReplacer(`""`, `"`, "\r\n", "\n")

// quoted reads the quoted field whose content starts at t[p], to the
// quote no quote follows, and returns where that one ends; !ok when
// there is none.
func quoted(t string, p int) (field string, after int, ok bool) {
	start, escaped := p, false
	for {
		i := strings.IndexByte(t[p:], '"')
		if i < 0 {
			return "", 0, false
		}
		p += i + 1
		if p == len(t) || t[p] != '"' {
			break
		}
		p++
		escaped = true
	}
	field = t[start : p-1]
	if escaped || strings.Contains(field, "\r\n") {
		field = unquote.Replace(field)
	}
	return field, p, true
}
