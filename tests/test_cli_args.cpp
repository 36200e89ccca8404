/**
 * @file
 * Strict CLI option parsing: the contract that malformed input is a
 * diagnostic plus exit 2, never a silent fall-back to defaults.  The
 * in-process tests exercise parseOptions() over a bound option table;
 * the process-level tests run the real coruscant_cli binary and check
 * its exit codes and that its help text is the table it parses with.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "dwm/device_params.hpp"
#include "reliability/fault_campaign.hpp"
#include "service/service_engine.hpp"
#include "util/cli_args.hpp"

namespace coruscant {
namespace {

enum class Policy
{
    None,
    PerAccess,
};

constexpr const char *kPolicyTokens[] = {"none", "per-access"};

constexpr std::span<const char *const>
enumTokens(Policy)
{
    return kPolicyTokens;
}

/** A small option table bound to fields with their defaults. */
struct Fields
{
    std::size_t trd = 3;
    std::uint32_t narrow = 5;
    std::optional<double> pfault;
    double prob = 0.25;
    Policy policy = Policy::PerAccess;
    std::optional<std::string> out;

    Options
    options()
    {
        return {opt("trd", trd, "distance"),
                opt("narrow", narrow, "32-bit field"),
                opt("pfault", pfault, "rate"),
                opt("prob", prob, "probability", 0.0, 1.0),
                opt("policy", policy, "policy"),
                opt("out", out, "output file")};
    }

    std::string
    parse(const std::vector<std::string> &args)
    {
        return parseOptions(args, options());
    }
};

TEST(CliArgs, ValidOptionsParseAndDefaultsApply)
{
    Fields f;
    ASSERT_EQ(f.parse({"--trd", "7", "--pfault", "1e-6"}), "");
    EXPECT_TRUE(f.pfault.has_value());
    EXPECT_FALSE(f.out.has_value());
    EXPECT_EQ(f.trd, 7u);
    EXPECT_DOUBLE_EQ(*f.pfault, 1e-6);
    EXPECT_EQ(f.policy, Policy::PerAccess); // absent: default kept
    EXPECT_EQ(f.narrow, 5u);
}

TEST(CliArgs, EmptyArgumentListIsValid)
{
    Fields f;
    EXPECT_EQ(f.parse({}), "");
    EXPECT_EQ(f.trd, 3u);
    EXPECT_FALSE(f.pfault.has_value());
}

TEST(CliArgs, UnknownOptionIsRejected)
{
    Fields f;
    EXPECT_NE(f.parse({"--bogus", "3"}).find("unknown option '--bogus'"),
              std::string::npos);
    // A prefix of a known name is not that name.
    EXPECT_NE(f.parse({"--tr", "3"}), "");
}

TEST(CliArgs, MissingValueIsRejected)
{
    Fields f;
    EXPECT_NE(f.parse({"--trd"}).find("requires a value"),
              std::string::npos);

    // Also when the dangling flag follows a valid pair.
    EXPECT_NE(f.parse({"--trd", "7", "--policy"}), "");
}

TEST(CliArgs, BareTokenIsRejected)
{
    Fields f;
    EXPECT_NE(f.parse({"seven"}).find("unexpected argument"),
              std::string::npos);
}

TEST(CliArgs, MalformedNumbersAreRejected)
{
    Fields f;
    for (const char *bad : {"seven", "", "7x", "-3", "+4", "3.5"})
        EXPECT_NE(f.parse({"--trd", bad}), "")
            << "accepted size '" << bad << "'";
    for (const char *bad : {"abc", "", "1e", "--", "1.2.3", "nan"})
        EXPECT_NE(f.parse({"--pfault", bad}), "")
            << "accepted double '" << bad << "'";
    // Scientific notation and signs are fine for doubles.
    EXPECT_EQ(f.parse({"--pfault", "-1.5e-3"}), "");
    EXPECT_EQ(f.trd, 3u); // rejected values never reach the field
}

TEST(CliArgs, LastOccurrenceWins)
{
    Fields f;
    ASSERT_EQ(f.parse({"--trd", "3", "--trd", "7"}), "");
    EXPECT_EQ(f.trd, 7u);
}

TEST(CliArgs, IntegersAreRangeCheckedAgainstTheirFieldType)
{
    Fields f;
    EXPECT_EQ(f.parse({"--narrow", "4294967295"}), "");
    EXPECT_EQ(f.narrow, 4294967295u);
    std::string why = f.parse({"--narrow", "4294967296"});
    EXPECT_NE(why.find("<= 4294967295"), std::string::npos) << why;
    EXPECT_EQ(f.narrow, 4294967295u);
    // A size_t field takes 2^64 - 1 but not 2^64.
    EXPECT_EQ(f.parse({"--trd", "18446744073709551615"}), "");
    EXPECT_NE(f.parse({"--trd", "18446744073709551616"}), "");
    // Explicit bounds narrow the type's own range.
    std::uint64_t backoff = 64;
    Options o = {opt("backoff", backoff, "wait", std::uint64_t{0},
                     std::uint64_t{1} << 32)};
    EXPECT_EQ(parseOptions({"--backoff", "4294967296"}, o), "");
    EXPECT_NE(parseOptions({"--backoff", "4294967297"}, o), "");
}

TEST(CliArgs, DoubleBoundsAreInclusive)
{
    Fields f;
    EXPECT_EQ(f.parse({"--prob", "0"}), "");
    EXPECT_EQ(f.parse({"--prob", "1"}), "");
    EXPECT_NE(f.parse({"--prob", "1.5"}).find("[0, 1]"),
              std::string::npos);
    EXPECT_NE(f.parse({"--prob", "-0.5"}), "");
    EXPECT_DOUBLE_EQ(f.prob, 1.0);
    // Unbounded doubles take infinities, never NaN.
    EXPECT_EQ(f.parse({"--pfault", "inf"}), "");
    EXPECT_NE(f.parse({"--pfault", "nan"}), "");
}

TEST(CliArgs, EnumParsesThroughItsTokenTable)
{
    Fields f;
    ASSERT_EQ(f.parse({"--policy", "none"}), "");
    EXPECT_EQ(f.policy, Policy::None);
    std::string why = f.parse({"--policy", "nope"});
    EXPECT_NE(why.find("none|per-access"), std::string::npos) << why;
    EXPECT_EQ(f.policy, Policy::None);

    bool on = true;
    std::optional<Policy> only;
    Options o = {opt("batch", on, "batching"), opt("only", only, "one")};
    ASSERT_EQ(parseOptions({"--batch", "off"}, o), "");
    EXPECT_FALSE(on);
    EXPECT_NE(parseOptions({"--batch", "maybe"}, o), "");
    EXPECT_FALSE(only.has_value());
    ASSERT_EQ(parseOptions({"--only", "none"}, o), "");
    EXPECT_EQ(only, Policy::None);
    EXPECT_NE(parseOptions({"--only", "scrub"}, o), "");
}

TEST(CliArgs, LibraryEnumsParseTheirFlagSpellings)
{
    GuardPolicy policy = GuardPolicy::None;
    EccMode ecc = EccMode::None;
    ArrivalProcess process = ArrivalProcess::Poisson;
    Options o = {opt("policy", policy, ""), opt("ecc", ecc, ""),
                 opt("process", process, "")};
    ASSERT_EQ(parseOptions({"--policy", "scrub", "--ecc", "secded",
                            "--process", "closed"},
                           o),
              "");
    EXPECT_EQ(policy, GuardPolicy::PeriodicScrub);
    EXPECT_STREQ(guardPolicyName(policy), "periodic-scrub"); // reports
    EXPECT_EQ(ecc, EccMode::Secded);
    EXPECT_STREQ(eccModeName(ecc), "secded");
    EXPECT_EQ(process, ArrivalProcess::ClosedLoop);
    EXPECT_STREQ(arrivalProcessName(process), "closed");
    EXPECT_NE(parseOptions({"--policy", "periodic-scrub"}, o), "");
}

TEST(CliArgs, PredicateRejectsValuesItRefuses)
{
    std::size_t nmr = 1;
    Options o = {opt("nmr", nmr, "arity",
                     [](std::size_t n) { return n % 2 == 1; }, "odd")};
    EXPECT_EQ(parseOptions({"--nmr", "3"}, o), "");
    EXPECT_NE(parseOptions({"--nmr", "4"}, o).find("expected odd"),
              std::string::npos);
    EXPECT_NE(parseOptions({"--nmr", "x"}, o), "");
    EXPECT_EQ(nmr, 3u);
}

TEST(CliArgs, HelpPrintsEachDefaultFromItsField)
{
    Fields f;
    f.trd = 9;
    std::string help = describeOptions(f.options());
    EXPECT_NE(help.find("--trd 9 "), std::string::npos) << help;
    EXPECT_NE(help.find("--narrow 5 "), std::string::npos);
    EXPECT_NE(help.find("--prob 0.25 "), std::string::npos);
    EXPECT_NE(help.find("probability (in [0, 1])"), std::string::npos);
    EXPECT_NE(help.find("--policy per-access "), std::string::npos);
    EXPECT_NE(help.find("(none|per-access)"), std::string::npos);
    EXPECT_NE(help.find("--out FILE "), std::string::npos);
    EXPECT_NE(help.find("--pfault X "), std::string::npos);
    // Doubles print the shortest text that reads back exactly.
    double p = 1e-3;
    EXPECT_NE(describeOptions({opt("p", p, "")}).find("--p 0.001 "),
              std::string::npos);
}

#ifdef CORUSCANT_CLI_PATH

/** Exit code of @p program run with @p args; 124 if it hangs 10 s. */
int
exitOf(const std::string &program, const std::string &args)
{
    std::string cmd =
        "timeout 10 " + program + " " + args + " >/dev/null 2>&1";
    int status = std::system(cmd.c_str());
    return WEXITSTATUS(status);
}

/** Exit code of the real CLI binary run with @p args. */
int
cliExit(const std::string &args)
{
    return exitOf(CORUSCANT_CLI_PATH, args);
}

/** Exit code of the bench binary @p bench run with @p args. */
int
benchExit(const std::string &bench, const std::string &args)
{
    return exitOf(std::string(CORUSCANT_BENCH_DIR) + "/" + bench, args);
}

/** Stdout of the real CLI binary run with @p args. */
std::string
cliOutput(const std::string &args)
{
    std::string cmd = std::string(CORUSCANT_CLI_PATH) + " " + args;
    std::string out;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return out;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
        out.append(buf, n);
    pclose(pipe);
    return out;
}

/** The `--flag value` pairs `help` prints under @p command, in order. */
std::vector<std::pair<std::string, std::string>>
helpFlags(const std::string &command)
{
    std::vector<std::pair<std::string, std::string>> flags;
    std::istringstream is(cliOutput("help"));
    bool in_section = false;
    for (std::string line; std::getline(is, line);) {
        if (!line.empty() && line[0] != ' ')
            in_section = line.rfind(command + ": ", 0) == 0;
        else if (in_section && line.rfind("  --", 0) == 0) {
            std::istringstream ls(line.substr(4));
            std::string flag, value;
            ls >> flag >> value;
            flags.emplace_back(flag, value);
        }
    }
    return flags;
}

TEST(CliProcess, HelpListsExactlyTheFlagsEachCommandAccepts)
{
    struct Case
    {
        const char *command;
        std::size_t flags;
        const char *shorten; ///< appended last: keeps the run small
    };
    for (const Case &c : {Case{"campaign", 12, "--trials 5"},
                          Case{"serve", 33, "--duration 2000"}}) {
        auto flags = helpFlags(c.command);
        EXPECT_EQ(flags.size(), c.flags) << c.command;
        // Every printed flag, given its printed default, is accepted.
        std::string args = c.command;
        for (const auto &[flag, value] : flags)
            args += " --" + flag + " " +
                    (value == "FILE" ? "/tmp/cli_help_" + flag : value);
        EXPECT_EQ(cliExit(args + " " + c.shorten), 0) << args;
    }
}

TEST(CliProcess, HelpDefaultsAreTheStructDefaults)
{
    std::map<std::string, std::string> serve, campaign;
    for (const auto &[flag, value] : helpFlags("serve"))
        serve[flag] = value;
    for (const auto &[flag, value] : helpFlags("campaign"))
        campaign[flag] = value;
    auto num = [](const std::string &s) {
        return std::strtod(s.c_str(), nullptr);
    };

    const ServiceConfig sc{};
    const ServiceFaultConfig &f = sc.faults;
    EXPECT_EQ(serve["retries"], "2");
    EXPECT_EQ(serve["backoff"], "64");
    EXPECT_EQ(serve["scrub-interval"], "4096");
    EXPECT_EQ(num(serve["channels"]), sc.channels);
    EXPECT_EQ(num(serve["threads"]), sc.threads);
    EXPECT_EQ(num(serve["banks"]), sc.banksPerChannel);
    EXPECT_EQ(num(serve["groups"]), sc.dbcGroupsPerBank);
    EXPECT_EQ(num(serve["trd"]), sc.trd);
    EXPECT_EQ(num(serve["seed"]), sc.seed);
    EXPECT_EQ(num(serve["rate"]), sc.ratePerKcycle);
    EXPECT_EQ(num(serve["duration"]), sc.durationCycles);
    EXPECT_EQ(num(serve["window"]), sc.batchWindowCycles);
    EXPECT_EQ(num(serve["queue-cap"]), sc.queueCapacity);
    EXPECT_EQ(num(serve["hot"]), sc.bulkHotGroups);
    EXPECT_EQ(num(serve["clients"]), sc.closedLoopWindow);
    EXPECT_EQ(serve["batch"], "on");
    EXPECT_EQ(serve["mix"], sc.mix.describe());
    EXPECT_EQ(serve["process"], arrivalProcessName(sc.process));
    EXPECT_EQ(num(serve["pshift"]), f.shiftFaultRate);
    EXPECT_EQ(serve["policy"], guardPolicyName(f.policy));
    EXPECT_EQ(serve["chaos"], "off");
    EXPECT_EQ(num(serve["retries"]), f.maxRetries);
    EXPECT_EQ(num(serve["backoff"]), f.retryBackoffCycles);
    EXPECT_EQ(num(serve["health-window"]), f.healthWindowCycles);
    EXPECT_EQ(num(serve["breaker-threshold"]), f.breakerThreshold);
    EXPECT_EQ(num(serve["cooldown"]), f.breakerCooldownCycles);
    EXPECT_EQ(num(serve["trips"]), f.tripsToRetire);
    EXPECT_EQ(num(serve["spares"]), f.sparesPerChannel);
    EXPECT_EQ(num(serve["scrub-interval"]), f.scrubIntervalCycles);
    EXPECT_EQ(num(serve["pdata"]), f.dataFaultRate);
    EXPECT_EQ(num(serve["pstuck"]), f.stuckAtFraction);
    EXPECT_EQ(num(serve["retention"]), f.retentionRatePerCycle);
    EXPECT_EQ(serve["ecc"], eccModeName(f.ecc));
    EXPECT_EQ(num(serve["nmr"]), f.pimNmr);

    const ControllerCampaignConfig cc{};
    EXPECT_EQ(campaign["trials"], "500");
    EXPECT_EQ(num(campaign["pshift"]), cc.shiftFaultRate);
    EXPECT_EQ(num(campaign["trials"]), cc.trials);
    EXPECT_EQ(num(campaign["seed"]), cc.seed);
    EXPECT_EQ(num(campaign["retire"]), cc.retireThreshold);
    EXPECT_EQ(campaign["policy"], guardPolicyName(cc.policy));
    EXPECT_EQ(num(campaign["pdata"]), cc.dataFaultRate);
    EXPECT_EQ(campaign["ecc"], eccModeName(cc.ecc));
    EXPECT_EQ(num(campaign["nmr"]), cc.pimNmr);
}

TEST(CliProcess, HelpExitsZero)
{
    EXPECT_EQ(cliExit("help"), 0);
    EXPECT_EQ(cliExit("--help"), 0);
}

TEST(CliProcess, UsageErrorsExitTwo)
{
    EXPECT_EQ(cliExit(""), 2);                    // no command
    EXPECT_EQ(cliExit("frobnicate"), 2);          // unknown command
    EXPECT_EQ(cliExit("ops --bogus 3"), 2);       // unknown option
    EXPECT_EQ(cliExit("serve --bogus 1"), 2);
    EXPECT_EQ(cliExit("ops --trd"), 2);           // missing value
    EXPECT_EQ(cliExit("ops --trd seven"), 2);     // malformed number
    EXPECT_EQ(cliExit("reliability --pfault x"), 2);
    EXPECT_EQ(cliExit("campaign --policy nope"), 2);
    EXPECT_EQ(cliExit("area --anything 1"), 2);   // area takes none
    EXPECT_EQ(cliExit("serve --batch maybe"), 2);
    // Retry ladders beyond 16 rungs or a 2^32-cycle first backoff.
    EXPECT_EQ(cliExit("serve --retries 17"), 2);
    EXPECT_EQ(cliExit("serve --backoff 4294967297"), 2);
    EXPECT_EQ(cliExit("serve --pshift 0.2 --policy per-cpim --retries 70 "
                      "--backoff 1000000000 --duration 20000 --channels 2"),
              2);
    // A 32-bit field rejects a value its type cannot hold rather
    // than wrapping it (2^32 + 1 would run as 1).
    EXPECT_EQ(cliExit("serve --channels 4294967297 --duration 2000"), 2);
    EXPECT_EQ(cliExit("serve --spares 4294967297 --pshift 1e-3"), 2);
    // The health tracker counts an error or a trip before it
    // compares, so a zero breaker threshold or trip count acted as 1.
    EXPECT_EQ(cliExit("serve --breaker-threshold 0"), 2);
    EXPECT_EQ(cliExit("serve --trips 0"), 2);
    // A window or cooldown past 2^32 cycles: the deadline sums
    // wrapped, so 2^64 - 1 acted as 0.
    EXPECT_EQ(cliExit("serve --window 4294967297"), 2);
    EXPECT_EQ(cliExit("serve --window 18446744073709551615"), 2);
    EXPECT_EQ(cliExit("serve --cooldown 4294967297"), 2);
    EXPECT_EQ(cliExit("serve --cooldown 18446744073709551615"), 2);
    EXPECT_EQ(cliExit("cnn --network vgg"), 2);
    // Open-loop rates in (0, 1000] per kcycle only: beyond one arrival
    // per cycle the arrival clock stalls and the run never ends.
    EXPECT_EQ(cliExit("serve --rate inf"), 2);
    EXPECT_EQ(cliExit("serve --rate 1e300"), 2);
    EXPECT_EQ(cliExit("serve --rate 1000.5"), 2);
    EXPECT_EQ(cliExit("serve --rate -5"), 2);
    EXPECT_EQ(cliExit("serve --rate 0"), 2);
    // A mix weight is one finite, non-negative number spelled as an
    // option's double: a NaN or infinite weight ran the wrong classes,
    // and a trailing suffix or a hex spelling was read in part.
    EXPECT_EQ(cliExit("serve --mix bulk:nan --duration 2000"), 2);
    EXPECT_EQ(cliExit("serve --mix read:inf,bulk:1 --duration 2000"), 2);
    EXPECT_EQ(cliExit("serve --mix read:1,bulk:2xyz --duration 2000"), 2);
    EXPECT_EQ(cliExit("serve --mix read:0x10 --duration 2000"), 2);
    // Finite weights whose sum is inf served only a zero-weight class.
    EXPECT_EQ(cliExit("serve --mix bulk:1e308,read:1e308 --duration 2000 "
                      "--channels 1"),
              2);
    // A class named twice ran with its last weight only.
    EXPECT_EQ(cliExit("serve --mix read:1,read:5,bulk:0 --duration 2000 "
                      "--channels 1"),
              2);
    // Without their ranges these values fail mid-run or not at all:
    // zero users leave zero row chunks to divide by, a zero problem
    // size gives NaN ratios, a week count outside 2..6 gives an empty
    // table or more than TRD = 7 operands, and `ops` prints part of
    // its table before a bad TRD or width stops it.
    EXPECT_EQ(cliExit("bitmap --users 0"), 2);
    EXPECT_EQ(cliExit("bitmap --weeks 1"), 2);
    EXPECT_EQ(cliExit("bitmap --weeks 7"), 2);
    EXPECT_EQ(cliExit("polybench --size 0"), 2);
    // Work sizes past the memory a run needs: 2^64 - 1 users wrapped
    // the bitmap word count (SIGSEGV), and n = 3000000 filled memory
    // until std::bad_alloc (exit 1).
    EXPECT_EQ(cliExit("bitmap --users 18446744073709551615"), 2);
    EXPECT_EQ(cliExit("polybench --size 3000000"), 2);
    EXPECT_EQ(cliExit("ops --trd 2"), 2);
    EXPECT_EQ(cliExit("ops --trd 33"), 2);
    EXPECT_EQ(cliExit("ops --bits 0"), 2);
    EXPECT_EQ(cliExit("ops --bits 33"), 2);
    EXPECT_EQ(cliExit("serve --trd 1"), 2);
    EXPECT_EQ(cliExit("serve --trd 33"), 2);
    // TRD 2 has no row for the carry, and from TRD 8 on a count needs a
    // weight-8 output: the PIM front ends take TRD in [3, 7] only.
    EXPECT_EQ(cliExit("serve --trd 2 --duration 2000"), 2);
    EXPECT_EQ(cliExit("serve --trd 8 --duration 2000"), 2);
    EXPECT_EQ(cliExit("ops --trd 8"), 2);
    EXPECT_EQ(cliExit("reliability --trd 8"), 2);
    // A zero-sized topology has nothing to serve on.
    EXPECT_EQ(cliExit("serve --channels 0"), 2);
    EXPECT_EQ(cliExit("serve --banks 0"), 2);
    EXPECT_EQ(cliExit("serve --groups 0"), 2);
    // A closed loop with no clients never issues a request.
    EXPECT_EQ(cliExit("serve --process closed --clients 0"), 2);
    // Zero trials report a coverage over nothing.
    EXPECT_EQ(cliExit("campaign --trials 0"), 2);
    // No device has these TR windows, and a probability lies in [0, 1].
    EXPECT_EQ(cliExit("reliability --trd 0"), 2);
    EXPECT_EQ(cliExit("reliability --trd 2"), 2);
    EXPECT_EQ(cliExit("reliability --trd 33"), 2);
    EXPECT_EQ(cliExit("reliability --trd 1000"), 2);
    EXPECT_EQ(cliExit("reliability --pfault 2"), 2);
    // A vote senses all N replicas in one TR window, so N <= TRD.
    EXPECT_EQ(cliExit("serve --nmr 5 --trd 3 --pdata 1e-4 --ecc secded "
                      "--duration 2000"),
              2);
    EXPECT_EQ(cliExit("serve --nmr 7 --trd 5 --duration 2000"), 2);
    // The service benches bind the CLI's ranges to their own flags.
    for (const char *rate : {"0", "inf", "-5", "1000.5"})
        EXPECT_EQ(benchExit("service_tail_latency",
                            std::string("--rate ") + rate),
                  2)
            << rate;
    EXPECT_EQ(benchExit("service_fault_tolerance", "--pshift 2"), 2);
    EXPECT_EQ(benchExit("service_fault_tolerance", "--pshift -1"), 2);
    EXPECT_EQ(benchExit("service_ecc_tolerance", "--pdata 2"), 2);
    EXPECT_EQ(benchExit("service_ecc_tolerance", "--pdata -0.1"), 2);
    EXPECT_EQ(benchExit("service_ecc_tolerance", "--retention -1"), 2);
}

TEST(CliProcess, DataFaultFlagValidationExitsTwo)
{
    // The data-fault/ECC axis added for campaign and serve: every
    // out-of-domain value is a diagnostic plus exit 2 on both
    // commands, never a silent clamp or fall-back.
    for (const char *cmd : {"campaign", "serve"}) {
        std::string c(cmd);
        EXPECT_EQ(cliExit(c + " --ecc bogus"), 2) << cmd;
        EXPECT_EQ(cliExit(c + " --ecc"), 2) << cmd;
        EXPECT_EQ(cliExit(c + " --pdata 1.5"), 2) << cmd;
        EXPECT_EQ(cliExit(c + " --pdata -0.1"), 2) << cmd;
        EXPECT_EQ(cliExit(c + " --pstuck 2"), 2) << cmd;
        EXPECT_EQ(cliExit(c + " --retention -1e-9"), 2) << cmd;
        EXPECT_EQ(cliExit(c + " --nmr 2"), 2) << cmd; // odd 1..7 only
        EXPECT_EQ(cliExit(c + " --nmr 9"), 2) << cmd;
        EXPECT_EQ(cliExit(c + " --pshift 1.5"), 2) << cmd;
        EXPECT_EQ(cliExit(c + " --pshift -0.5"), 2) << cmd;
    }
}

TEST(CliProcess, TrdFourBuildsItsCostTables)
{
    EXPECT_EQ(cliExit("serve --trd 4 --duration 2000"), 0);
}

TEST(CliProcess, OpsTracesEveryMeasuredOpAtEveryTrd)
{
    // One thread row per op `ops` prints: 7 where the max-arity add is
    // the two-operand add (TRD 3 and 4), 8 otherwise.
    for (std::size_t trd = DeviceParams::kMinPimTrd;
         trd <= DeviceParams::kMaxPimTrd; ++trd) {
        const std::string path =
            "/tmp/cli_ops_trace_" + std::to_string(trd) + ".json";
        ASSERT_EQ(cliExit("ops --trd " + std::to_string(trd) +
                          " --bits 4 --metrics-json /tmp/cli_test_m.json"
                          " --trace " + path),
                  0)
            << trd;
        std::set<unsigned long> rows;
        std::ifstream is(path);
        for (std::string line; std::getline(is, line);)
            if (line.find("\"ph\": \"X\"") != std::string::npos)
                rows.insert(std::stoul(
                    line.substr(line.find("\"tid\": ") + 7)));
        const std::size_t want =
            DeviceParams::withTrd(trd).maxAddOperands() == 2 ? 7 : 8;
        ASSERT_EQ(rows.size(), want) << trd;
        EXPECT_EQ(*rows.rbegin(), want - 1) << trd;
    }
}

TEST(CliProcess, ServeAtTheLongestDurationEnds)
{
    // The arrival clock reaches 2^64 before the duration ends; the
    // stream must stop there rather than wrap and run forever.
    EXPECT_EQ(cliExit("serve --channels 1 --duration 18446744073709551615 "
                      "--rate 0.000000000001"),
              0);
}

TEST(CliProcess, DataFaultCampaignRunsCleanWithValidFlags)
{
    EXPECT_EQ(cliExit("campaign --trials 5 --pshift 0 --pdata 1e-4 "
                      "--ecc secded --nmr 3 --retention 1e-9"),
              0);
}

TEST(CliProcess, ObservabilityFlagsAreAccepted)
{
    // OpsTracesEveryMeasuredOpAtEveryTrd writes both files.
    EXPECT_EQ(cliExit("ops --metrics-json"), 2); // still needs a value
    EXPECT_EQ(cliExit("ops --trace"), 2);
}

#endif // CORUSCANT_CLI_PATH

} // namespace
} // namespace coruscant
