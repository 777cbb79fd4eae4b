// Seeded lint fixture: a file-local void helper that shares its name with
// the Status-returning AddTenant in src/bad.h. Its calls discard nothing, so
// status-discard must not fire in this file. Never compiled — gnn4tdl_lint
// reads it as text.

static void AddTenant(int id) { (void)id; }

void RegisterTenants() {
  AddTenant(1);
  AddTenant(2);
}
