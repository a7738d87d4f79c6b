#include "common/json.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace spt {

void
JsonWriter::separate()
{
    if (have_key_) {
        // key() already emitted "name": — the value follows inline.
        have_key_ = false;
        return;
    }
    if (need_comma_)
        out_ += ',';
    if (!stack_.empty()) {
        out_ += '\n';
        indent();
    }
}

void
JsonWriter::indent()
{
    out_.append(2 * stack_.size(), ' ');
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    stack_ += '{';
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    SPT_ASSERT(!stack_.empty() && stack_.back() == '{' && !have_key_,
               "JsonWriter::endObject outside an object");
    stack_.pop_back();
    out_ += '\n';
    indent();
    out_ += '}';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    stack_ += '[';
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    SPT_ASSERT(!stack_.empty() && stack_.back() == '[' && !have_key_,
               "JsonWriter::endArray outside an array");
    stack_.pop_back();
    out_ += '\n';
    indent();
    out_ += ']';
    need_comma_ = true;
    return *this;
}

namespace {

std::string
escaped(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace

JsonWriter &
JsonWriter::key(const std::string &name)
{
    SPT_ASSERT(!stack_.empty() && stack_.back() == '{' && !have_key_,
               "JsonWriter::key needs an open object");
    separate();
    out_ += escaped(name);
    out_ += ": ";
    need_comma_ = true;
    have_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out_ += escaped(v);
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    separate();
    out_ += std::to_string(v);
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    separate();
    out_ += std::to_string(v);
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v, int precision)
{
    separate();
    if (std::isfinite(v)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*f", precision, v);
        out_ += buf;
    } else {
        out_ += "null";
    }
    need_comma_ = true;
    return *this;
}

const std::string &
JsonWriter::str() const
{
    SPT_ASSERT(stack_.empty() && !have_key_,
               "JsonWriter::str with unclosed scopes");
    return out_;
}

void
writeReportFile(const std::string &path, const std::string &content)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        SPT_FATAL("cannot open " << path << " for writing");
    const std::size_t n =
        std::fwrite(content.data(), 1, content.size(), f);
    const bool ok = n == content.size() && std::fputc('\n', f) != EOF;
    if (std::fclose(f) != 0 || !ok)
        SPT_FATAL("short write to " << path);
}

} // namespace spt
