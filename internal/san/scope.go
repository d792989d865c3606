package san

import "fmt"

// Scope is the composition mechanism, the equivalent of Möbius's Rep/Join
// state-variable sharing. A scope names a region of the composed model;
// places created in a scope get unique scoped names, and a child submodel
// reaches a place shared by an enclosing scope with Shared. This directly
// expresses the paper's sharing levels: a place local to one Replica
// submodel, shared among the replicas of one application, shared across a
// security domain, or global.
type Scope struct {
	model  *Model
	path   string
	shared map[string]*Place
	parent *Scope
}

// Root returns the root scope of a model.
func Root(m *Model) *Scope {
	return &Scope{model: m, shared: make(map[string]*Place)}
}

// Child creates a nested scope named name (e.g. "domain[2]").
func (sc *Scope) Child(name string) *Scope {
	path := name
	if sc.path != "" {
		path = sc.path + "/" + name
	}
	return &Scope{model: sc.model, path: path, shared: make(map[string]*Place), parent: sc}
}

// Place creates a place local to this scope with the given short name and
// initial marking, and registers it as shared so descendant scopes can
// resolve it with Shared. The full model-level name is path-qualified.
func (sc *Scope) Place(name string, init Marking) *Place {
	if _, dup := sc.shared[name]; dup {
		panic(fmt.Sprintf("san: place %q already exists in scope %q", name, sc.path))
	}
	full := name
	if sc.path != "" {
		full = sc.path + "." + name
	}
	p := sc.model.Place(full, init)
	sc.shared[name] = p
	return p
}

// Shared resolves name against this scope and its ancestors, panicking if
// the name is not found: a missing shared place is a composition bug.
func (sc *Scope) Shared(name string) *Place {
	for s := sc; s != nil; s = s.parent {
		if p, ok := s.shared[name]; ok {
			return p
		}
	}
	panic(fmt.Sprintf("san: no shared place %q visible from scope %q", name, sc.path))
}

// Has reports whether name resolves from this scope.
func (sc *Scope) Has(name string) bool {
	for s := sc; s != nil; s = s.parent {
		if _, ok := s.shared[name]; ok {
			return true
		}
	}
	return false
}

// Activity adds an activity whose name is qualified by the scope path.
func (sc *Scope) Activity(def ActivityDef) *Activity {
	if sc.path != "" {
		def.Name = sc.path + "." + def.Name
	}
	return sc.model.AddActivity(def)
}

// Submodel is an atomic SAN template: a function that declares places and
// activities inside the scope it is given. The same template instantiated
// in n sibling scopes with selected names bound in the parent scope is
// exactly a Möbius "Rep" node; different templates each instantiated in
// their own Child of one parent, sharing its bindings, form a "Join".
type Submodel func(sc *Scope)

// Replicate instantiates def n times under parent, in child scopes named
// name[i]. Places listed in shared must already exist in parent (or an
// ancestor): the copies share them. All other places the template creates
// are per-copy. It returns the child scopes.
func Replicate(parent *Scope, name string, n int, shared []string, def Submodel) []*Scope {
	for _, s := range shared {
		if !parent.Has(s) {
			panic(fmt.Sprintf("san: Replicate %q shares %q which is not defined in an enclosing scope", name, s))
		}
	}
	children := make([]*Scope, n)
	for i := 0; i < n; i++ {
		child := parent.Child(fmt.Sprintf("%s[%d]", name, i))
		def(child)
		children[i] = child
	}
	return children
}
