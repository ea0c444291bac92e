package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// conn is one keep-alive HTTP/1.1 connection of the load generator. It
// writes prebuilt request bytes and reads each response body into one
// reused buffer, so a timed round allocates nothing per request. It
// understands only what stserve sends on the hot paths: a status line,
// headers with a Content-Length, and that many body bytes.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // a request is one small write; never wait to coalesce
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), body: make([]byte, 0, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

var errNoLength = errors.New("response without Content-Length")

// do sends one prebuilt request and returns the status and the body. The
// body aliases the connection's buffer and is valid until the next call.
func (c *conn) do(req []byte) (int, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > 16 && bytes.EqualFold(line[:15], []byte("Content-Length:")) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[15:])))
			if err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, nil, errNoLength
	}
	if cap(c.body) < length {
		c.body = make([]byte, 0, length*2)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// intField extracts the integer after the first (or, with last, the
// last) occurrence of key — `"count":` sits at the head of a /query
// body and `"io":` at its tail, so neither scans the id list.
func intField(body []byte, key string, last bool) (int64, bool) {
	var i int
	if last {
		i = bytes.LastIndex(body, []byte(key))
	} else {
		i = bytes.Index(body, []byte(key))
	}
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(body) && (body[j] == '-' || (body[j] >= '0' && body[j] <= '9')) {
		j++
	}
	n, err := strconv.ParseInt(string(body[i:j]), 10, 64)
	return n, err == nil
}
