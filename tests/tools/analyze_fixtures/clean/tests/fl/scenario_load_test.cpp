// Tests describe experiments as scenario files: copy-initialization from
// a loaded scenario or a helper call is the sanctioned pattern, and so is
// a reference parameter. Lexed, never compiled.

namespace fixture {

void probe(const fl::ExperimentOptions& options);

fl::ExperimentOptions make() { return tiny(); }

void load(const char* path) {
  const fl::Scenario sc = fl::load_scenario_file(path);
  fl::ExperimentOptions options = sc.options;
  fl::ExperimentOptions tweaked = tiny();
  const fl::ExperimentOptions defaults;  // analyze:waive(scenario-hardcode) defaults probe
  probe(options);
  probe(tweaked);
  probe(defaults);
}

}  // namespace fixture
