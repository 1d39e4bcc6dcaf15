package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"disco/internal/mediator"
	"disco/internal/proto"
)

// Server serves the wire protocol over TCP for one federation: the
// mediator Handler mounted on the shared connection layer (ConnServer,
// which the federation router reuses). The mediator pipeline is
// thread-safe, so connections are handled concurrently.
type Server struct {
	*ConnServer
	fed *Federation
}

// NewServer wraps a federation with a connection handler.
func NewServer(fed *Federation, idleTimeout time.Duration) *Server {
	s := &Server{fed: fed}
	// Shutdown's drain hook closes the mediator, flushing the debounced
	// feedback snapshot.
	s.ConnServer = NewConnServer(s, idleTimeout, fed.Med.Close)
	return s
}

// Stats is the server-level snapshot the stats op returns: the
// mediator's serving counters plus the connection-layer view.
type Stats struct {
	Mediator mediator.Stats `json:"mediator"`
	// Accepted counts connections accepted since start; ActiveConns is
	// the current population.
	Accepted    int64 `json:"accepted"`
	ActiveConns int   `json:"active_conns"`
	// Epoch is the current catalog epoch (bumped by re-registration).
	Epoch uint64 `json:"epoch"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	med := s.fed.Med.Stats()
	return Stats{
		Mediator:    med,
		Accepted:    s.Accepted(),
		ActiveConns: s.ActiveConns(),
		Epoch:       med.Epoch,
	}
}

// errorResponse renders an error, marking admission-control shedding so
// clients can back off and retry instead of failing the statement.
func errorResponse(err error) *proto.Response {
	return &proto.Response{
		Error:      err.Error(),
		Overloaded: errors.Is(err, mediator.ErrOverloaded),
	}
}

// Handle executes one request against the federation.
func (s *Server) Handle(req *proto.Request) *proto.Response {
	med := s.fed.Med
	switch req.Op {
	case "ping":
		return &proto.Response{OK: true, Text: "pong"}

	case "query":
		res, err := med.Query(req.SQL)
		if err != nil {
			return errorResponse(err)
		}
		resp := &proto.Response{OK: true, ElapsedMS: res.ElapsedMS,
			Partial: res.Partial, Excluded: res.Excluded}
		for i := 0; i < res.Schema.Len(); i++ {
			resp.Columns = append(resp.Columns, res.Schema.Field(i).QualifiedName())
		}
		// The rows go out as they are; from here on they are only read,
		// since a result-cache entry is shared between requests.
		resp.Rows = res.Rows
		return resp

	case "explain":
		out, err := med.Explain(req.SQL)
		if err != nil {
			return errorResponse(err)
		}
		return &proto.Response{OK: true, Text: out}

	case "explain-analyze":
		out, err := med.ExplainAnalyze(req.SQL)
		if err != nil {
			return errorResponse(err)
		}
		return &proto.Response{OK: true, Text: out}

	case "feedback":
		out, err := med.FeedbackSummary()
		if err != nil {
			return errorResponse(err)
		}
		return &proto.Response{OK: true, Text: out}

	case "catalog":
		return &proto.Response{OK: true, Text: med.Catalog.String()}

	case "history":
		if med.History == nil {
			return &proto.Response{Error: "history recording is disabled"}
		}
		return &proto.Response{OK: true, Text: med.History.Summary()}

	case "stats":
		data, err := json.Marshal(s.Stats())
		if err != nil {
			return errorResponse(err)
		}
		return &proto.Response{OK: true, Text: string(data)}

	case "warm":
		executed, err := med.Warm(req.SQL)
		if err != nil {
			return errorResponse(err)
		}
		if executed {
			return &proto.Response{OK: true, Text: "warmed (plan+result)"}
		}
		return &proto.Response{OK: true, Text: "warmed (plan)"}

	case "reregister":
		if err := s.fed.Reregister(req.Arg); err != nil {
			return errorResponse(err)
		}
		return &proto.Response{OK: true, Text: fmt.Sprintf("reregistered %q (epoch %d)", req.Arg, med.Stats().Epoch)}

	case "setlink":
		if err := s.fed.SetLink(req.Arg); err != nil {
			return errorResponse(err)
		}
		return &proto.Response{OK: true, Text: "link updated: " + req.Arg}

	default:
		return &proto.Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}
