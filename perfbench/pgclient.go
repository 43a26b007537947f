package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// pgConn is a minimal streaming Postgres v3 client: startup with trust
// auth and the simple query protocol, text format. Rows are handed to a
// callback as raw field bytes straight out of the read buffer, so a
// 50k-row job is checked as it streams instead of being materialized —
// the client stays cheap beside the server it shares the host with.
type pgConn struct {
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	buf []byte
	row [][]byte
}

// pgError is an ErrorResponse from the server.
type pgError struct{ code, msg string }

func (e *pgError) Error() string { return fmt.Sprintf("pg %s: %s", e.code, e.msg) }

func dialPG(ctx context.Context, addr, user string) (*pgConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &pgConn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriter(nc)}
	var p []byte
	p = binary.BigEndian.AppendUint32(p, 0) // length, patched below
	p = binary.BigEndian.AppendUint32(p, 3<<16)
	for _, kv := range []string{"user", user, "database", "raven"} {
		p = append(p, kv...)
		p = append(p, 0)
	}
	p = append(p, 0)
	binary.BigEndian.PutUint32(p, uint32(len(p)))
	if _, err := c.w.Write(p); err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := c.until(nil); err != nil {
		nc.Close()
		return nil, fmt.Errorf("pg startup: %w", err)
	}
	return c, nil
}

// readMsg reads one backend message into the reused buffer.
func (c *pgConn) readMsg() (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[1:])) - 4
	if n < 0 || n > 1<<28 {
		return 0, nil, fmt.Errorf("pg: bad message length %d", n)
	}
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	b := c.buf[:n]
	if _, err := io.ReadFull(c.r, b); err != nil {
		return 0, nil, err
	}
	return hdr[0], b, nil
}

// until reads messages up to ReadyForQuery, passing each DataRow's
// fields to onRow (nil ones are NULL). It returns the number of rows
// and the first ErrorResponse, if any; the connection stays usable.
func (c *pgConn) until(onRow func([][]byte) error) (int, error) {
	rows := 0
	var firstErr error
	for {
		typ, b, err := c.readMsg()
		if err != nil {
			return rows, err
		}
		switch typ {
		case 'D':
			rows++
			if onRow == nil || firstErr != nil {
				continue
			}
			if err := c.decodeRow(b); err != nil {
				firstErr = err
				continue
			}
			if err := onRow(c.row); err != nil {
				firstErr = err
			}
		case 'E':
			if firstErr == nil {
				firstErr = parseErrorResponse(b)
			}
		case 'R':
			if len(b) < 4 || binary.BigEndian.Uint32(b) != 0 {
				return rows, fmt.Errorf("pg: unsupported authentication request")
			}
		case 'Z':
			return rows, firstErr
		}
	}
}

func (c *pgConn) decodeRow(b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("pg: short DataRow")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	c.row = c.row[:0]
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return fmt.Errorf("pg: short DataRow field")
		}
		l := int(int32(binary.BigEndian.Uint32(b)))
		b = b[4:]
		if l < 0 {
			c.row = append(c.row, nil)
			continue
		}
		if l > len(b) {
			return fmt.Errorf("pg: DataRow field overruns message")
		}
		c.row = append(c.row, b[:l])
		b = b[l:]
	}
	return nil
}

func parseErrorResponse(b []byte) *pgError {
	e := &pgError{}
	for len(b) > 1 {
		f := b[0]
		end := 1
		for end < len(b) && b[end] != 0 {
			end++
		}
		v := string(b[1:end])
		switch f {
		case 'C':
			e.code = v
		case 'M':
			e.msg = v
		}
		if end >= len(b) {
			break
		}
		b = b[end+1:]
	}
	return e
}

// query runs one simple-protocol statement, streaming its rows to onRow.
func (c *pgConn) query(sql string, onRow func([][]byte) error) (int, error) {
	var hdr [5]byte
	hdr[0] = 'Q'
	binary.BigEndian.PutUint32(hdr[1:], uint32(4+len(sql)+1))
	c.w.Write(hdr[:])
	c.w.WriteString(sql)
	c.w.WriteByte(0)
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	return c.until(onRow)
}

// close sends Terminate and closes the socket.
func (c *pgConn) close() error {
	c.w.Write([]byte{'X', 0, 0, 0, 4})
	c.w.Flush()
	return c.nc.Close()
}
