"""Extension study: PPP planned from sampled edge profiles.

The paper's setting assumes edge profiles are collected by sampling.
Planning PPP from profiles thinned to 1/10 and 1/100 of traversals must
degrade gracefully (all PPP criteria are relative thresholds), or the
technique would not be deployable where the paper aims it.
"""

from repro.harness import sampling_study, sampling_table

from conftest import mean, save_rendering


def test_sampled_profile_robustness(suite_results, profiling_session,
                                    benchmark):
    session = profiling_session
    sample = suite_results["twolf"]
    rows = benchmark(lambda: sampling_study(sample, rates=(0.1,),
                                            session=session))

    subset = {name: suite_results[name]
              for name in ("vpr", "twolf", "bzip2", "mesa", "equake")}
    save_rendering("sampling", sampling_table(subset, session=session))

    for name, result in subset.items():
        by_rate = {r.rate: r for r in sampling_study(result,
                                                     session=session)}
        full, tenth, hundredth = (by_rate[1.0], by_rate[0.1],
                                  by_rate[0.01])
        # 1/10 sampling is essentially free.
        assert tenth.accuracy >= full.accuracy - 0.05, name
        assert abs(tenth.overhead - full.overhead) <= 0.02, name
        # Even 1/100 sampling keeps PPP useful.
        assert hundredth.accuracy >= 0.75, name
        assert hundredth.overhead <= full.overhead + 0.05, name
