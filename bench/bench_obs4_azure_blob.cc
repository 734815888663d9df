/**
 * @file
 * Regenerates Observation 4: remote storage is not frequently
 * updated. The analyzer recomputes, from a raw blob-access stream,
 * the statistics the paper extracts from the Azure Functions traces:
 * write fraction, read-only blob fraction, write-count distribution
 * of writable blobs, and the write-to-next-read gap distribution.
 */

#include "bench_common.hh"

#include "traces/azure_blob.hh"

using namespace specfaas;
using namespace specfaas::bench;

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    banner("Observation 4: blob-store access analysis (Azure stand-in)");

    BlobTraceConfig config;
    auto trace = generateBlobTrace(config);
    auto stats = analyzeBlobTrace(trace);

    TextTable table;
    table.header({"Statistic", "Measured", "Paper"});
    table.row({"Accesses analyzed",
               strFormat("%llu", static_cast<unsigned long long>(
                                     stats.accesses)),
               "40M"});
    table.row({"Write fraction", fmtPercent(stats.writeFraction),
               "23%"});
    table.row({"Read-only blobs",
               fmtPercent(stats.readOnlyBlobFraction), "~67%"});
    table.row({"Writable blobs written <10 times",
               fmtPercent(stats.writableUnder10Writes), "99.9%"});
    table.row({"Write->read gap > 1 s",
               fmtPercent(stats.writeReadGapOver1s), "96%"});
    table.row({"Write->read gap > 10 s",
               fmtPercent(stats.writeReadGapOver10s), "27%"});
    table.print();

    obs.report().addMetric("write_fraction", stats.writeFraction);
    obs.report().addMetric("read_only_blob_fraction",
                           stats.readOnlyBlobFraction);

    std::printf("\nInterpretation: writes are rare and far from the "
                "reads that follow them, so buffering speculative "
                "writes per invocation rarely conflicts with remote "
                "storage traffic.\n");
    return 0;
}
