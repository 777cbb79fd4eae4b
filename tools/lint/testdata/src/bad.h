// Seeded lint-fixture header: deliberately violates missing-pragma-once and
// using-namespace-in-header, and declares the Status-returning functions the
// .cc file discards (and AddTenant, which tests/local_helper_test.cc shadows
// with a void helper). Never compiled — gnn4tdl_lint reads it as text.

using namespace std;

Status DoThing();
StatusOr<int> ComputeThing();
Status AddTenant(int id);
