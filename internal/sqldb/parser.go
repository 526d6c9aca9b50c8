package sqldb

import (
	"fmt"
	"strconv"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	st, _, err := parse(src)
	return st, err
}

// parse parses one statement and returns its bind names as BindNames
// would, from the same token stream.
func parse(src string) (Statement, []string, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, nil, err
	}
	p.accept(tkSymbol, ";")
	if !p.at(tkEOF, "") {
		return nil, nil, p.errf("trailing input starting at %q", p.cur().text)
	}
	return st, bindNames(toks), nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{tkIdent: "identifier", tkNumber: "number", tkBind: "bind"}[kind]
	}
	return token{}, p.errf("expected %q, found %q", want, p.cur().text)
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: parse error near offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) keyword(kw string) bool { return p.accept(tkIdent, kw) }

func (p *parser) statement() (Statement, error) {
	switch {
	case p.keyword("create"):
		return p.createStmt()
	case p.keyword("drop"):
		return p.dropStmt()
	case p.keyword("insert"):
		return p.insertStmt()
	case p.keyword("delete"):
		return p.deleteStmt()
	case p.keyword("select"):
		return p.selectStmt()
	// BEGIN/COMMIT/ROLLBACK are contextual keywords, statement-initial
	// only, with an optional TRANSACTION or WORK noise word.
	case p.keyword("begin"):
		p.txnNoise()
		return &BeginStmt{}, nil
	case p.keyword("commit"):
		p.txnNoise()
		return &CommitStmt{}, nil
	case p.keyword("rollback"):
		p.txnNoise()
		return &RollbackStmt{}, nil
	case p.keyword("explain"):
		// ANALYZE is a contextual keyword: EXPLAIN ANALYZE executes the
		// query and annotates the plan with the measured operator stats.
		analyze := p.keyword("analyze")
		if !p.keyword("select") {
			return nil, p.errf("EXPLAIN supports SELECT statements only")
		}
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel.(*SelectStmt), Analyze: analyze}, nil
	}
	return nil, p.errf("unknown statement %q", p.cur().text)
}

func (p *parser) txnNoise() {
	if !p.keyword("transaction") {
		p.keyword("work")
	}
}

func (p *parser) identifier() (string, error) {
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return "", err
	}
	if reserved[t.text] {
		return "", p.errf("reserved word %q used as identifier", t.text)
	}
	return t.text, nil
}

var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "and": true, "or": true,
	"not": true, "between": true, "union": true, "all": true, "insert": true,
	"into": true, "values": true, "delete": true, "create": true, "table": true,
	"index": true, "drop": true, "on": true, "order": true, "by": true,
	"asc": true, "desc": true, "explain": true, "as": true, "is": true,
	"indextype": true, "distinct": true, "limit": true, "group": true,
}

func (p *parser) createStmt() (Statement, error) {
	switch {
	case p.keyword("table"):
		name, err := p.identifier()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			// Optional type name: INT / INTEGER / anything int-ish.
			if p.at(tkIdent, "int") || p.at(tkIdent, "integer") || p.at(tkIdent, "bigint") || p.at(tkIdent, "number") {
				p.next()
			}
			cols = append(cols, col)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return &CreateTableStmt{Name: name, Columns: cols}, nil
	case p.keyword("index"):
		name, err := p.identifier()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkIdent, "on"); err != nil {
			return nil, err
		}
		table, err := p.identifier()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			cols = append(cols, col)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		st := &CreateIndexStmt{Name: name, Table: table, Columns: cols}
		// Oracle-style: CREATE INDEX ... INDEXTYPE IS ritree (paper §5),
		// optionally tuned with PARAMETERS (key = value, ...).
		if p.keyword("indextype") {
			if !p.keyword("is") {
				return nil, p.errf("expected IS after INDEXTYPE")
			}
			it, err := p.identifier()
			if err != nil {
				return nil, err
			}
			st.IndexType = it
			if p.keyword("parameters") {
				params, err := p.paramList()
				if err != nil {
					return nil, err
				}
				st.Params = params
			}
		}
		return st, nil
	case p.keyword("collection"):
		// CREATE COLLECTION name [USING method]: the unified-API shorthand
		// for a (lower, upper, id) relation plus its access-method domain
		// index.
		name, err := p.identifier()
		if err != nil {
			return nil, err
		}
		st := &CreateCollectionStmt{Name: name}
		if p.keyword("using") {
			m, err := p.identifier()
			if err != nil {
				return nil, err
			}
			st.Method = m
		}
		// WITH (key = value, ...) tunes the access method; the pairs are
		// validated by the indextype and persisted in the catalog, so a
		// reopened database re-attaches the collection with the same
		// geometry.
		if p.keyword("with") {
			params, err := p.paramList()
			if err != nil {
				return nil, err
			}
			st.Params = params
		}
		return st, nil
	}
	return nil, p.errf("expected TABLE, INDEX or COLLECTION after CREATE")
}

// paramList parses (key = value, ...) where value is a signed integer or
// an identifier; values are kept as strings for the indextype to
// interpret.
func (p *parser) paramList() (map[string]string, error) {
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	params := make(map[string]string)
	for {
		key, err := p.identifier()
		if err != nil {
			return nil, err
		}
		if _, dup := params[key]; dup {
			return nil, p.errf("duplicate parameter %q", key)
		}
		if _, err := p.expect(tkSymbol, "="); err != nil {
			return nil, err
		}
		neg := p.accept(tkSymbol, "-")
		var val string
		switch {
		case p.at(tkNumber, ""):
			val = p.next().text
		case !neg && p.cur().kind == tkIdent && !reserved[p.cur().text]:
			val = p.next().text
		default:
			return nil, p.errf("expected a number or identifier value for parameter %q", key)
		}
		if neg {
			val = "-" + val
		}
		params[key] = val
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *parser) dropStmt() (Statement, error) {
	isIndex := false
	switch {
	case p.keyword("table"):
	case p.keyword("index"):
		isIndex = true
	case p.keyword("collection"):
		name, err := p.identifier()
		if err != nil {
			return nil, err
		}
		return &DropCollectionStmt{Name: name}, nil
	default:
		return nil, p.errf("expected TABLE, INDEX or COLLECTION after DROP")
	}
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	return &DropStmt{Index: isIndex, Name: name}, nil
}

func (p *parser) insertStmt() (Statement, error) {
	if !p.keyword("into") {
		return nil, p.errf("expected INTO after INSERT")
	}
	table, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if !p.keyword("values") {
		return nil, p.errf("expected VALUES")
	}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	var vals []Expr
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		vals = append(vals, e)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return &InsertStmt{Table: table, Values: vals}, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if !p.keyword("from") {
		return nil, p.errf("expected FROM after DELETE")
	}
	table, err := p.identifier()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.keyword("where") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) selectStmt() (Statement, error) {
	sel, err := p.selectBlock()
	if err != nil {
		return nil, err
	}
	// ORDER BY applies to the whole union chain, so parse it last.
	last := sel
	for last.Union != nil {
		last = last.Union
	}
	if p.keyword("order") {
		if !p.keyword("by") {
			return nil, p.errf("expected BY after ORDER")
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.keyword("desc") {
				item.Desc = true
			} else {
				p.keyword("asc")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	// LIMIT applies to the whole union chain, after ORDER BY.
	if p.keyword("limit") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	return sel, nil
}

// selectBlock parses one SELECT ... FROM ... WHERE ... and any UNION ALL
// continuation.
func (p *parser) selectBlock() (*SelectStmt, error) {
	st := &SelectStmt{}
	if p.keyword("distinct") {
		st.Distinct = true
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if !p.keyword("from") {
		return nil, p.errf("expected FROM")
	}
	for {
		tr, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		st.From = append(st.From, tr)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if p.keyword("where") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.keyword("group") {
		if !p.keyword("by") {
			return nil, p.errf("expected BY after GROUP")
		}
		for {
			g, err := p.expression()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, g)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.keyword("union") {
		if !p.keyword("all") {
			return nil, p.errf("only UNION ALL is supported (the paper's queries produce no duplicates)")
		}
		if !p.keyword("select") {
			return nil, p.errf("expected SELECT after UNION ALL")
		}
		u, err := p.selectBlock()
		if err != nil {
			return nil, err
		}
		st.Union = u
	}
	return st, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(tkSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	// alias.* wildcard.
	if p.cur().kind == tkIdent && !reserved[p.cur().text] &&
		p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tkSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tkSymbol && p.toks[p.pos+2].text == "*" {
		alias := p.next().text
		p.next()
		p.next()
		return SelectItem{Star: true, StarAlias: alias}, nil
	}
	e, err := p.expression()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.keyword("as") {
		a, err := p.identifier()
		if err != nil {
			return SelectItem{}, err
		}
		item.As = a
	} else if p.cur().kind == tkIdent && !reserved[p.cur().text] {
		item.As = p.next().text
	}
	return item, nil
}

func (p *parser) tableRef() (TableRef, error) {
	var tr TableRef
	if p.keyword("table") {
		// TABLE(:bind) — a transient collection (paper §4.2: "transient
		// relations are managed in the transient session state").
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return tr, err
		}
		b, err := p.expect(tkBind, "")
		if err != nil {
			return tr, err
		}
		tr.Collection = b.text
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return tr, err
		}
	} else {
		name, err := p.identifier()
		if err != nil {
			return tr, err
		}
		tr.Name = name
	}
	if p.cur().kind == tkIdent && !reserved[p.cur().text] {
		tr.Alias = p.next().text
	}
	return tr, nil
}

// Expression grammar (precedence climbing):
//
//	or   := and (OR and)*
//	and  := not (AND not)*
//	not  := [NOT] cmp
//	cmp  := add (op add | [NOT] BETWEEN add AND add)?
//	add  := mul ((+|-) mul)*
//	mul  := unary ((*|/) unary)*
//	unary:= [-] primary
func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.keyword("not") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "not", X: x}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	notBetween := false
	if p.keyword("not") {
		if !p.keyword("between") {
			return nil, p.errf("expected BETWEEN after NOT")
		}
		notBetween = true
	} else if !p.keyword("between") {
		for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
			if p.accept(tkSymbol, op) {
				r, err := p.addExpr()
				if err != nil {
					return nil, err
				}
				return &BinaryExpr{Op: op, L: l, R: r}, nil
			}
		}
		return l, nil
	}
	lo, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if !p.keyword("and") {
		return nil, p.errf("expected AND in BETWEEN")
	}
	hi, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	return &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: notBetween}, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tkSymbol, "+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "+", L: l, R: r}
		case p.accept(tkSymbol, "-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tkSymbol, "*"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "*", L: l, R: r}
		case p.accept(tkSymbol, "/"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.accept(tkSymbol, "-") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tkNumber:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &NumberExpr{Value: v}, nil
	case tkBind:
		p.next()
		return &BindExpr{Name: t.text}, nil
	case tkIdent:
		if reserved[t.text] {
			return nil, p.errf("unexpected keyword %q", t.text)
		}
		p.next()
		// f(args...) — extensible-indexing operator or aggregate call.
		if p.accept(tkSymbol, "(") {
			if p.accept(tkSymbol, "*") {
				if _, err := p.expect(tkSymbol, ")"); err != nil {
					return nil, err
				}
				return &CallExpr{Name: t.text, Star: true}, nil
			}
			var args []Expr
			if !p.at(tkSymbol, ")") {
				for {
					a, err := p.expression()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(tkSymbol, ",") {
						break
					}
				}
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return &CallExpr{Name: t.text, Args: args}, nil
		}
		if p.accept(tkSymbol, ".") {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			return &ColumnExpr{Table: t.text, Column: col}, nil
		}
		return &ColumnExpr{Column: t.text}, nil
	case tkSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}
