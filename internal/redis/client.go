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

// Do sends one command (name plus bulk-string arguments) and returns the
// reply. Error replies become Go errors.
func (c *Client) Do(cmd string, args ...[]byte) (Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doLocked(cmd, args...)
}

func (c *Client) doLocked(cmd string, args ...[]byte) (Value, error) {
	if err := c.send(cmd, args...); err != nil {
		return Value{}, err
	}
	v, err := c.r.Read()
	return checkReply(cmd, v, err)
}

// send writes one command and flushes it.
func (c *Client) send(cmd string, args ...[]byte) error {
	parts := make([]Value, 0, len(args)+1)
	parts = append(parts, BulkString(cmd))
	for _, a := range args {
		parts = append(parts, Bulk(a))
	}
	if err := c.w.Write(Array(parts...)); err != nil {
		return fmt.Errorf("redis: send %s: %w", cmd, err)
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
	_, err := c.Do("SET", []byte(key), value)
	return err
}

// Get fetches key into a new buffer; ErrNil if missing.
func (c *Client) Get(key string) ([]byte, error) { return c.GetInto(key, nil) }

// GetInto fetches key append-style: the value is read off the socket
// straight into dst's array when its capacity holds it, and into a new
// buffer otherwise. ErrNil if missing. The result is the caller's; the
// client keeps no reference to dst.
func (c *Client) GetInto(key string, dst []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send("GET", []byte(key)); err != nil {
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
	args := make([][]byte, len(keys))
	for i, k := range keys {
		args[i] = []byte(k)
	}
	v, err := c.Do("DEL", args...)
	if err != nil {
		return 0, err
	}
	return v.Int, nil
}

// Exists reports whether key is present.
func (c *Client) Exists(key string) (bool, error) {
	v, err := c.Do("EXISTS", []byte(key))
	if err != nil {
		return false, err
	}
	return v.Int > 0, nil
}

// Keys returns keys matching a glob pattern.
func (c *Client) Keys(pattern string) ([]string, error) {
	v, err := c.Do("KEYS", []byte(pattern))
	if err != nil {
		return nil, err
	}
	out := make([]string, len(v.Array))
	for i, el := range v.Array {
		out[i] = el.Text()
	}
	return out, nil
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

// Keys merges KEYS results from all shards.
func (cl *Cluster) Keys(pattern string) ([]string, error) {
	var all []string
	for _, c := range cl.clients {
		ks, err := c.Keys(pattern)
		if err != nil {
			return nil, err
		}
		all = append(all, ks...)
	}
	return all, nil
}
