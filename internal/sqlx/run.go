package sqlx

import (
	"fmt"
	"strings"

	"mpf/internal/core"
	"mpf/internal/exec"
	"mpf/internal/opt"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"time"
)

// Output is the result of executing one statement.
type Output struct {
	// Message summarizes DDL/DML effects.
	Message string
	// Relation is a query result (nil for non-queries and EXPLAIN).
	Relation *relation.Relation
	// Plan is set for EXPLAIN and for executed queries.
	Plan *plan.Node
	// Optimize and Exec carry query measurements.
	Optimize time.Duration
	Exec     exec.RunStats
}

// Session executes parsed statements against a database. Tables under
// construction (CREATE TABLE + INSERTs) are staged in memory and loaded
// into the engine when first referenced by a view or query.
type Session struct {
	DB     *core.Database
	staged map[string]*relation.Relation
}

// NewSession returns a session over the database.
func NewSession(db *core.Database) *Session {
	return &Session{DB: db, staged: make(map[string]*relation.Relation)}
}

// Exec parses and executes one statement.
func (s *Session) Exec(input string) (*Output, error) {
	st, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return s.Run(st)
}

// Run executes a parsed statement.
func (s *Session) Run(st Statement) (*Output, error) {
	switch st := st.(type) {
	case *CreateTable:
		if _, dup := s.staged[st.Name]; dup {
			return nil, fmt.Errorf("sqlx: table %s already staged", st.Name)
		}
		r, err := relation.New(st.Name, st.Attrs)
		if err != nil {
			return nil, err
		}
		s.staged[st.Name] = r
		return &Output{Message: fmt.Sprintf("created table %s (%d attributes)", st.Name, len(st.Attrs))}, nil

	case *Insert:
		r, ok := s.staged[st.Table]
		if !ok {
			return nil, fmt.Errorf("sqlx: table %s is not staged for inserts (create it first)", st.Table)
		}
		if err := r.Append(st.Values, st.Measure); err != nil {
			return nil, err
		}
		return &Output{Message: fmt.Sprintf("inserted 1 tuple into %s", st.Table)}, nil

	case *Drop:
		if st.View {
			if err := s.DB.DropView(st.Name); err != nil {
				return nil, err
			}
			return &Output{Message: "dropped mpfview " + st.Name}, nil
		}
		if _, staged := s.staged[st.Name]; staged {
			delete(s.staged, st.Name)
			return &Output{Message: "dropped staged table " + st.Name}, nil
		}
		if err := s.DB.DropTable(st.Name); err != nil {
			return nil, err
		}
		return &Output{Message: "dropped table " + st.Name}, nil

	case *CreateView:
		if err := s.flush(st.Tables); err != nil {
			return nil, err
		}
		if err := s.DB.CreateView(st.Name, st.Tables); err != nil {
			return nil, err
		}
		return &Output{Message: fmt.Sprintf("created mpfview %s over %s",
			st.Name, strings.Join(st.Tables, ", "))}, nil

	case *Select:
		if err := s.checkAgg(st.Agg); err != nil {
			return nil, err
		}
		spec := &core.QuerySpec{
			View:      st.View,
			GroupVars: st.GroupVars,
			Where:     st.Where,
		}
		if st.HavingOp != "" {
			op, ok := map[string]core.HavingOp{
				"<": core.HavingLT, "<=": core.HavingLE,
				">": core.HavingGT, ">=": core.HavingGE,
				"=": core.HavingEQ,
			}[st.HavingOp]
			if !ok {
				return nil, fmt.Errorf("sqlx: unsupported having operator %q", st.HavingOp)
			}
			spec.Having = &core.Having{Op: op, Value: st.HavingValue}
		}
		if st.Using != "" {
			o, err := opt.ByName(st.Using)
			if err != nil {
				return nil, fmt.Errorf("sqlx: %w (known strategies: %s)", err, strings.Join(opt.Names(), ", "))
			}
			spec.Optimizer = o
		}
		if st.Explain && st.Analyze {
			// EXPLAIN ANALYZE executes the query and reports per-operator
			// actuals from the trace instead of the result rows.
			res, err := s.DB.Query(spec)
			if err != nil {
				return nil, err
			}
			return &Output{
				Plan:     res.Plan,
				Optimize: res.Optimize,
				Exec:     res.Exec,
				Message:  RenderAnalyze(res.Exec),
			}, nil
		}
		if st.Explain {
			p, d, err := s.DB.Explain(spec)
			if err != nil {
				return nil, err
			}
			return &Output{Plan: p, Optimize: d, Message: p.String()}, nil
		}
		res, err := s.DB.Query(spec)
		if err != nil {
			return nil, err
		}
		return &Output{
			Relation: res.Relation,
			Plan:     res.Plan,
			Optimize: res.Optimize,
			Exec:     res.Exec,
			Message:  fmt.Sprintf("%d rows", res.Relation.Len()),
		}, nil

	default:
		return nil, fmt.Errorf("sqlx: unsupported statement %T", st)
	}
}

// flush loads staged tables referenced by names into the engine.
func (s *Session) flush(names []string) error {
	for _, n := range names {
		r, ok := s.staged[n]
		if !ok {
			continue // already loaded, or unknown (CreateView will complain)
		}
		if err := s.DB.CreateTable(r); err != nil {
			return err
		}
		delete(s.staged, n)
	}
	return nil
}

// checkAgg validates the aggregate against the database semiring: the
// additive operation of the semiring must match the requested aggregate.
func (s *Session) checkAgg(agg string) error {
	name := s.DB.Semiring().Name()
	add := strings.SplitN(name, "-", 2)[0]
	if add != agg {
		return fmt.Errorf("sqlx: aggregate %s incompatible with database semiring %s (additive op is %s)",
			agg, name, add)
	}
	return nil
}
