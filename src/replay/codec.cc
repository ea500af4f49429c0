#include "replay/codec.hh"

#include <algorithm>
#include <cstring>
#include <vector>

namespace tproc::replay
{

namespace
{

/** Hash-table size for the match finder (positions of 4-byte keys). */
constexpr size_t hashBits = 15;
constexpr size_t hashSize = size_t{1} << hashBits;

inline uint32_t
hash4(const unsigned char *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    // Fibonacci hashing: spread the 4-byte window over hashBits.
    return (v * 2654435761u) >> (32 - hashBits);
}

inline size_t
matchLength(const unsigned char *a, const unsigned char *b,
            const unsigned char *end)
{
    size_t n = 0;
    while (a + n < end && a[n] == b[n])
        ++n;
    return n;
}

void
emitLiterals(std::string &out, const unsigned char *src, size_t begin,
             size_t end)
{
    if (begin < end) {
        const size_t run = end - begin;
        putVarint(out, run << 1);
        out.append(reinterpret_cast<const char *>(src) + begin, run);
    }
}

} // anonymous namespace

std::string
lzCompress(const std::string &plain)
{
    std::string out;
    const auto *src =
        reinterpret_cast<const unsigned char *>(plain.data());
    const size_t n = plain.size();
    out.reserve(n / 2 + 16);

    // head[h] = most recent position whose 4-byte key hashed to h.
    std::vector<size_t> head(hashSize, SIZE_MAX);

    size_t pos = 0;
    size_t literal_start = 0;
    while (n >= lzMinMatch && pos + lzMinMatch <= n) {
        const uint32_t h = hash4(src + pos);
        const size_t cand = head[h];
        head[h] = pos;
        size_t len = 0;
        if (cand != SIZE_MAX) {
            len = matchLength(src + pos, src + cand, src + n);
            if (len < lzMinMatch)
                len = 0;
        }
        if (!len) {
            ++pos;
            continue;
        }
        emitLiterals(out, src, literal_start, pos);
        putVarint(out, ((len - lzMinMatch) << 1) | 1);
        putVarint(out, pos - cand);
        // Index the positions the match skips so later data can still
        // reference bytes inside it (cheap, and the blocks are small).
        const size_t stop =
            (pos + len + lzMinMatch <= n) ? pos + len : 0;
        for (size_t i = pos + 1; i < stop; ++i)
            head[hash4(src + i)] = i;
        pos += len;
        literal_start = pos;
    }
    emitLiterals(out, src, literal_start, n);
    return out;
}

std::string
lzDecompress(const char *data, size_t n, size_t plain_len)
{
    ByteCursor c(data, n);
    std::string out;
    // Grow-as-decoded past 1 MiB: a corrupt plain_len must not drive
    // a huge upfront allocation before the stream fails validation.
    out.reserve(std::min(plain_len, size_t{1} << 20));
    while (out.size() < plain_len) {
        const uint64_t tag = c.varint();
        if ((tag & 1) == 0) {
            const uint64_t run = tag >> 1;
            if (run == 0 || run > plain_len - out.size())
                throw TraceError("compressed block: bad literal run");
            out.append(c.take(static_cast<size_t>(run)),
                       static_cast<size_t>(run));
        } else {
            const uint64_t len = (tag >> 1) + lzMinMatch;
            const uint64_t dist = c.varint();
            if (dist == 0 || dist > out.size())
                throw TraceError("compressed block: bad match distance");
            if (len > plain_len - out.size())
                throw TraceError("compressed block: match overruns "
                                 "plaintext length");
            // A match may overlap its own output (dist < len: RLE).
            // Each block copies only bytes already decoded, and the
            // blocks double, so a run of n bytes takes log(n) copies.
            const size_t from = out.size() - static_cast<size_t>(dist);
            auto left = static_cast<size_t>(len);
            while (left > 0) {
                const size_t block = std::min(left, out.size() - from);
                out.append(out, from, block);
                left -= block;
            }
        }
    }
    if (!c.atEnd())
        throw TraceError("compressed block: trailing bytes after "
                         "plaintext length reached");
    return out;
}

CodecResult
codecCompress(const std::string &plain)
{
    CodecResult r;
    r.bytes = lzCompress(plain);
    if (r.bytes.size() < plain.size()) {
        r.codec = CodecId::LZ;
    } else {
        r.codec = CodecId::RAW;
        r.bytes = plain;
    }
    return r;
}

std::string
codecDecompress(uint8_t codec, const char *data, size_t n,
                size_t plain_len)
{
    switch (static_cast<CodecId>(codec)) {
      case CodecId::RAW:
        if (n != plain_len)
            throw TraceError("raw block length disagrees with "
                             "plaintext length");
        return std::string(data, n);
      case CodecId::LZ:
        return lzDecompress(data, n, plain_len);
    }
    throw TraceError("unknown codec id " + std::to_string(codec));
}

std::string
codecName(uint8_t codec)
{
    switch (static_cast<CodecId>(codec)) {
      case CodecId::RAW:
        return "raw";
      case CodecId::LZ:
        return "lz";
    }
    return "codec" + std::to_string(codec);
}

} // namespace tproc::replay
