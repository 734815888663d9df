#include "data_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace specfaas {

void
DataBuffer::addColumn(InstanceId owner, OrderKey order)
{
    SPECFAAS_ASSERT(!columns_.count(owner), "duplicate column %llu",
                    static_cast<unsigned long long>(owner));
    columns_[owner] = std::move(order);
    orderedValid_ = false;
}

bool
DataBuffer::hasColumn(InstanceId owner) const
{
    return columns_.count(owner) > 0;
}

void
DataBuffer::invalidateColumn(InstanceId owner)
{
    columns_.erase(owner);
    orderedValid_ = false;
    for (auto it = rows_.begin(); it != rows_.end();) {
        it->second.cells.erase(owner);
        if (it->second.cells.empty())
            it = rows_.erase(it);
        else
            ++it;
    }
    forwardSources_.erase(owner);
    for (auto& [reader, writers] : forwardSources_) {
        (void)reader;
        writers.erase(owner);
    }
}

const std::vector<InstanceId>&
DataBuffer::ordered() const
{
    std::vector<InstanceId>& out = ordered_;
    if (orderedValid_)
        return out;
    orderedValid_ = true;
    out.clear();
    for (const auto& [owner, order] : columns_) {
        (void)order;
        out.push_back(owner);
    }
    std::sort(out.begin(), out.end(),
              [this](InstanceId a, InstanceId b) {
                  return orderKeyLess(columns_.at(a), columns_.at(b));
              });
    return out;
}

BufferReadResult
DataBuffer::read(InstanceId reader, const std::string& key)
{
    SPECFAAS_ASSERT(columns_.count(reader), "read without column");
    BufferReadResult result;

    auto rit = rows_.find(key);
    Row& row = rit != rows_.end() ? rit->second : rows_[key];

    // The reader's own cell first: a read after the function's own
    // write is NOT exposed (§V-C) — it observes the function's own
    // value and must not set the R bit, so a predecessor's later
    // write to the record does not squash this function (its W bit
    // already shields it in the write scan).
    Cell& own = row.cells[reader];
    if (own.written) {
        result.value = own.value;
        result.forwarded = true;
        return result;
    }

    // Scan predecessor W bits in reverse program order (§V-C Read
    // Operation): forward the youngest predecessor's value.
    const std::vector<InstanceId>& order = ordered();
    const auto self = std::find(order.begin(), order.end(), reader);
    SPECFAAS_ASSERT(self != order.end(), "reader not in order");
    for (auto it = std::make_reverse_iterator(self); it != order.rend();
         ++it) {
        auto cit = row.cells.find(*it);
        if (cit != row.cells.end() && cit->second.written) {
            result.value = cit->second.value;
            result.forwarded = true;
            ++forwards_;
            forwardSources_[reader].insert(*it);
            break;
        }
    }

    own.read = true;
    return result;
}

std::vector<InstanceId>
DataBuffer::write(InstanceId writer, const std::string& key, Value value)
{
    SPECFAAS_ASSERT(columns_.count(writer), "write without column");
    Row& row = rows_[key];

    // Scan successor columns in program order up to and including
    // the first one that has re-defined the record (§V-C Write
    // Operation). Successors that read prematurely are violations.
    std::vector<InstanceId> violators;
    const std::vector<InstanceId>& order = ordered();
    auto self = std::find(order.begin(), order.end(), writer);
    SPECFAAS_ASSERT(self != order.end(), "writer not in order");
    for (auto it = std::next(self); it != order.end(); ++it) {
        auto cit = row.cells.find(*it);
        if (cit == row.cells.end())
            continue;
        if (cit->second.read) {
            violators.push_back(*it);
            ++violations_;
        }
        if (cit->second.written)
            break; // the record was re-defined downstream
    }

    Cell& own = row.cells[writer];
    own.written = true;
    own.value = std::move(value);
    return violators;
}

void
DataBuffer::commitColumn(InstanceId owner)
{
    SPECFAAS_ASSERT(columns_.count(owner), "commit without column");
    for (auto it = rows_.begin(); it != rows_.end();) {
        auto cit = it->second.cells.find(owner);
        if (cit != it->second.cells.end()) {
            if (cit->second.written)
                store_.put(it->first, std::move(cit->second.value));
            it->second.cells.erase(cit);
        }
        if (it->second.cells.empty())
            it = rows_.erase(it);
        else
            ++it;
    }
    columns_.erase(owner);
    orderedValid_ = false;
    // Committed data is architectural; forwarded copies of it are
    // no longer speculative.
    forwardSources_.erase(owner);
    for (auto& [reader, writers] : forwardSources_) {
        (void)reader;
        writers.erase(owner);
    }
}

void
DataBuffer::mergeColumn(InstanceId callee, InstanceId caller)
{
    SPECFAAS_ASSERT(columns_.count(callee), "merge without callee column");
    SPECFAAS_ASSERT(columns_.count(caller), "merge without caller column");
    for (auto it = rows_.begin(); it != rows_.end();) {
        auto cit = it->second.cells.find(callee);
        if (cit != it->second.cells.end()) {
            // Take the callee's cell out first: inserting the
            // caller's may move the cells.
            Cell merged = std::move(cit->second);
            it->second.cells.erase(cit);
            Cell& dst = it->second.cells[caller];
            dst.read = dst.read || merged.read;
            if (merged.written) {
                dst.written = true;
                dst.value = std::move(merged.value);
            }
        }
        if (it->second.cells.empty())
            it = rows_.erase(it);
        else
            ++it;
    }
    columns_.erase(callee);
    orderedValid_ = false;
    // Re-attribute forwarded reads of the callee's data to the caller.
    auto fit = forwardSources_.find(callee);
    if (fit != forwardSources_.end()) {
        forwardSources_[caller].insert(fit->second.begin(),
                                       fit->second.end());
        forwardSources_.erase(callee);
    }
    for (auto& [reader, writers] : forwardSources_) {
        (void)reader;
        if (writers.erase(callee) > 0)
            writers.insert(caller);
    }
}

bool
DataBuffer::hasWrite(InstanceId owner, const std::string& key) const
{
    auto rit = rows_.find(key);
    if (rit == rows_.end())
        return false;
    auto cit = rit->second.cells.find(owner);
    return cit != rit->second.cells.end() && cit->second.written;
}

std::vector<InstanceId>
DataBuffer::readersForwardedFrom(InstanceId writer) const
{
    std::vector<InstanceId> out;
    for (const auto& [reader, writers] : forwardSources_) {
        if (reader != writer && writers.count(writer) &&
            columns_.count(reader)) {
            out.push_back(reader);
        }
    }
    return out;
}

std::size_t
DataBuffer::footprintBytes() const
{
    std::size_t bytes = 0;
    for (const auto& [key, row] : rows_) {
        bytes += key.size();
        for (const auto& [owner, cell] : row.cells) {
            (void)owner;
            bytes += 3; // V/R/W bits, byte-rounded
            if (cell.written)
                bytes += cell.value.toString().size();
        }
    }
    return bytes;
}

} // namespace specfaas
