/**
 * @file
 * Strict CLI option parsing: the contract that malformed input is a
 * diagnostic plus exit 2, never a silent fall-back to defaults.  The
 * in-process tests exercise parseArgs(); the process-level tests run
 * the real coruscant_cli binary and check its exit codes.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "util/cli_args.hpp"

namespace coruscant {
namespace {

const std::vector<ArgSpec> kSpecs = {{"trd", ArgType::Size},
                                     {"pfault", ArgType::Double},
                                     {"policy", ArgType::String}};

TEST(CliArgs, ValidOptionsParseAndDefaultsApply)
{
    ParsedArgs o = parseArgs({"--trd", "7", "--pfault", "1e-6"}, kSpecs);
    ASSERT_TRUE(o.ok()) << o.error();
    EXPECT_TRUE(o.has("trd"));
    EXPECT_FALSE(o.has("policy"));
    EXPECT_EQ(o.getSize("trd", 3), 7u);
    EXPECT_DOUBLE_EQ(o.getDouble("pfault", 0.5), 1e-6);
    EXPECT_EQ(o.getString("policy", "per-access"), "per-access");
}

TEST(CliArgs, EmptyArgumentListIsValid)
{
    ParsedArgs o = parseArgs({}, kSpecs);
    EXPECT_TRUE(o.ok());
    EXPECT_EQ(o.getSize("trd", 7), 7u);
}

TEST(CliArgs, UnknownOptionIsRejected)
{
    ParsedArgs o = parseArgs({"--bogus", "3"}, kSpecs);
    EXPECT_FALSE(o.ok());
    EXPECT_NE(o.error().find("unknown option '--bogus'"),
              std::string::npos);
}

TEST(CliArgs, MissingValueIsRejected)
{
    ParsedArgs o = parseArgs({"--trd"}, kSpecs);
    EXPECT_FALSE(o.ok());
    EXPECT_NE(o.error().find("requires a value"), std::string::npos);

    // Also when the dangling flag follows a valid pair.
    ParsedArgs p = parseArgs({"--trd", "7", "--policy"}, kSpecs);
    EXPECT_FALSE(p.ok());
}

TEST(CliArgs, BareTokenIsRejected)
{
    ParsedArgs o = parseArgs({"seven"}, kSpecs);
    EXPECT_FALSE(o.ok());
    EXPECT_NE(o.error().find("unexpected argument"),
              std::string::npos);
}

TEST(CliArgs, MalformedNumbersAreRejected)
{
    for (const char *bad : {"seven", "", "7x", "-3", "+4", "3.5"}) {
        ParsedArgs o = parseArgs({"--trd", bad}, kSpecs);
        EXPECT_FALSE(o.ok()) << "accepted size '" << bad << "'";
    }
    for (const char *bad : {"abc", "", "1e", "--", "1.2.3"}) {
        ParsedArgs o = parseArgs({"--pfault", bad}, kSpecs);
        EXPECT_FALSE(o.ok()) << "accepted double '" << bad << "'";
    }
    // Scientific notation and signs are fine for doubles.
    EXPECT_TRUE(parseArgs({"--pfault", "-1.5e-3"}, kSpecs).ok());
}

TEST(CliArgs, LastOccurrenceWins)
{
    ParsedArgs o = parseArgs({"--trd", "3", "--trd", "7"}, kSpecs);
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.getSize("trd", 0), 7u);
}

#ifdef CORUSCANT_CLI_PATH

/** Exit code of the real CLI binary run with @p args. */
int
cliExit(const std::string &args)
{
    std::string cmd = std::string(CORUSCANT_CLI_PATH) + " " + args +
                      " >/dev/null 2>&1";
    int status = std::system(cmd.c_str());
    return WEXITSTATUS(status);
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
    }
}

TEST(CliProcess, DataFaultCampaignRunsCleanWithValidFlags)
{
    EXPECT_EQ(cliExit("campaign --trials 5 --pshift 0 --pdata 1e-4 "
                      "--ecc secded --nmr 3 --retention 1e-9"),
              0);
}

TEST(CliProcess, ObservabilityFlagsAreAccepted)
{
    // The new flags parse (and write their files) on the fast paths.
    EXPECT_EQ(cliExit("ops --trd 3 --bits 4 "
                      "--metrics-json /tmp/cli_test_m.json "
                      "--trace /tmp/cli_test_t.json"),
              0);
    EXPECT_EQ(cliExit("ops --metrics-json"), 2); // still needs a value
    EXPECT_EQ(cliExit("ops --trace"), 2);
}

#endif // CORUSCANT_CLI_PATH

} // namespace
} // namespace coruscant
