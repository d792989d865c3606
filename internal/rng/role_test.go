package rng

import "testing"

func TestRoleStableAndIndependent(t *testing.T) {
	root := New(7)
	r1 := root.Role(3)
	r2 := root.Role(3)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("Role with the same id is not reproducible")
	}
	if root.Role(3).Uint64() == root.Role(4).Uint64() {
		t.Fatal("Role with different ids produced the same first draw")
	}
	// Role and Derive with the same id must live in separate domains.
	if root.Role(3).Uint64() == root.Derive(3).Uint64() {
		t.Fatal("Role(3) collides with Derive(3)")
	}
	// Role must not advance the parent stream.
	before := *root
	root.Role(99)
	if before != *root {
		t.Fatal("Role mutated the parent stream")
	}
}

func TestRoleNamedMatchesRoleKey(t *testing.T) {
	root := New(5)
	a := root.RoleNamed("domain[0].host[1].attack_host")
	b := root.Role(RoleKey("domain[0].host[1].attack_host"))
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RoleNamed diverges from Role(RoleKey(name))")
		}
	}
}

func TestRoleKeyDistinguishesNames(t *testing.T) {
	names := []string{
		"__init__", "__race__",
		"domain[0].host[0].attack_host", "domain[0].host[1].attack_host",
		"app[0].rep[0].valid_ID", "app[0].rep[1].valid_ID", "app[0].recovery",
	}
	seen := make(map[uint64]string)
	for _, n := range names {
		k := RoleKey(n)
		if prev, dup := seen[k]; dup {
			t.Fatalf("RoleKey collision: %q and %q -> %d", prev, n, k)
		}
		seen[k] = n
	}
}
