package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection that sends pre-rendered
// request bytes: the generator's cost per request is a socket write and a
// response parse.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do writes one rendered request and reads its response. The body is
// returned only when wantBody is set; otherwise it is discarded. A
// transport failure returns status 0 and the error.
func (c *conn) do(req []byte, wantBody bool) (status int, body []byte, err error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	if wantBody {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// getJSON issues one request and decodes a 200 response into v.
func (c *conn) getJSON(req []byte, v any) error {
	status, body, err := c.do(req, true)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	return json.Unmarshal(body, v)
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }

// tally counts responses by class for the server.* count metrics.
type tally struct {
	requests, s2xx, s4xx, s429, s5xx, transport int64
}

func (t *tally) note(status int) {
	t.requests++
	switch {
	case status == 0: // the transport failed
		t.transport++
	case ok2xx(status):
		t.s2xx++
	case status == http.StatusTooManyRequests:
		t.s429++
		t.s4xx++
	case status >= 400 && status < 500:
		t.s4xx++
	case status >= 500:
		t.s5xx++
	}
}

func (t *tally) add(o tally) {
	t.requests += o.requests
	t.s2xx += o.s2xx
	t.s4xx += o.s4xx
	t.s429 += o.s429
	t.s5xx += o.s5xx
	t.transport += o.transport
}

func (t *tally) failed() int64 { return t.requests - t.s2xx }
