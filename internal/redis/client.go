package redis

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
)

// ErrNil reports a null reply (missing key) from the server.
var ErrNil = errors.New("redis: nil reply")

// Client is a connection to one server. It is safe for concurrent use;
// requests on one client are serialized over a single TCP connection,
// like a redis-py connection.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *Reader
	w    *Writer
}

// Dial connects to a server address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("redis: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: NewReader(conn), w: NewWriter(conn)}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// do sends cmd with keys, then vals, as its arguments and reads the
// reply. Error replies become Go errors.
func (c *Client) do(cmd string, keys []string, vals ...[]byte) (Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send(cmd, keys, vals...); err != nil {
		return Value{}, err
	}
	v, err := c.r.Read()
	return checkReply(cmd, v, err)
}

// send encodes one command — an array of bulk strings: cmd, keys, then
// vals — straight into the writer, building no Values, and flushes it.
// A failed write sticks in the buffered writer, so Flush reports it.
func (c *Client) send(cmd string, keys []string, vals ...[]byte) error {
	c.w.header('*', 1+len(keys)+len(vals))
	c.w.bulkString(cmd)
	for _, k := range keys {
		c.w.bulkString(k)
	}
	for _, v := range vals {
		c.w.Write(Bulk(v))
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("redis: send %s: %w", cmd, err)
	}
	return nil
}

// checkReply wraps the outcome of reading cmd's reply; error replies
// become Go errors.
func checkReply(cmd string, v Value, err error) (Value, error) {
	if err != nil {
		return Value{}, fmt.Errorf("redis: reply %s: %w", cmd, err)
	}
	if v.Kind == KindError {
		return Value{}, fmt.Errorf("redis: %s", v.Str)
	}
	return v, nil
}

// Set stores value under key.
func (c *Client) Set(key string, value []byte) error {
	_, err := c.do("SET", []string{key}, value)
	return err
}

// GetInto fetches key append-style: the value is read off the socket
// straight into dst's array when its capacity holds it, and into a new
// buffer otherwise. ErrNil if missing. The result is the caller's; the
// client keeps no reference to dst.
func (c *Client) GetInto(key string, dst []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send("GET", []string{key}); err != nil {
		return nil, err
	}
	v, err := c.r.readBulkInto(dst)
	if v, err = checkReply("GET", v, err); err != nil {
		return nil, err
	}
	if v.IsNull() {
		return nil, fmt.Errorf("%w: %q", ErrNil, key)
	}
	return v.Bulk, nil
}

// Del removes keys, returning how many existed.
func (c *Client) Del(keys ...string) (int64, error) {
	v, err := c.do("DEL", keys)
	if err != nil {
		return 0, err
	}
	return v.Int, nil
}

// Exists reports whether key is present.
func (c *Client) Exists(key string) (bool, error) {
	v, err := c.do("EXISTS", []string{key})
	if err != nil {
		return false, err
	}
	return v.Int > 0, nil
}

// Cluster is a client-side sharded view over several independent server
// instances, matching the paper's ServerManager deployment of Redis "as
// distinct instances or as a cluster": keys are routed by CRC32.
type Cluster struct {
	clients []*Client
}

// DialCluster connects to every address.
func DialCluster(addrs []string) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("redis: empty cluster address list")
	}
	cl := &Cluster{}
	for _, a := range addrs {
		c, err := Dial(a)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.clients = append(cl.clients, c)
	}
	return cl, nil
}

// Close closes every member connection.
func (cl *Cluster) Close() error {
	var first error
	for _, c := range cl.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pick routes a key to its shard client.
func (cl *Cluster) pick(key string) *Client {
	return cl.clients[int(crc32.ChecksumIEEE([]byte(key))%uint32(len(cl.clients)))]
}

// Set stores value on the key's shard.
func (cl *Cluster) Set(key string, value []byte) error { return cl.pick(key).Set(key, value) }

// GetInto fetches key from its shard into dst, as Client.GetInto does.
func (cl *Cluster) GetInto(key string, dst []byte) ([]byte, error) {
	return cl.pick(key).GetInto(key, dst)
}

// Del removes key from its shard.
func (cl *Cluster) Del(key string) (int64, error) { return cl.pick(key).Del(key) }

// Exists checks key on its shard.
func (cl *Cluster) Exists(key string) (bool, error) { return cl.pick(key).Exists(key) }
