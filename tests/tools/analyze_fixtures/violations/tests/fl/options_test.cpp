// Hand-built ExperimentOptions in a test: default, brace, and `= {}`
// initialization. Lexed, never compiled.

namespace fixture {

void build_by_hand() {
  fl::ExperimentOptions options;  // expect: scenario-hardcode
  options.num_clients = 5;
  fl::ExperimentOptions braced{};  // expect: scenario-hardcode
  const fl::ExperimentOptions assigned = {};  // expect: scenario-hardcode
  (void)braced;
  (void)assigned;
}

}  // namespace fixture
