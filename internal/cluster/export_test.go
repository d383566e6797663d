package cluster

// Dial connects to one worker over TCP, without a Cluster.
func Dial(addr string) (*Client, error) {
	return DialTransport(TCPTransport{}, addr)
}

// DialTransport connects to one worker through an explicit transport,
// such as one that records or rewrites the bytes.
func DialTransport(tr Transport, addr string) (*Client, error) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	return newClientConn(conn, addr, 0), nil
}
