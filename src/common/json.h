/**
 * @file
 * Machine-readable experiment reports: a small streaming JSON
 * writer (stable key order, fixed float formatting, proper string
 * escaping) shared by every bench driver, stat dump, and the
 * trace/profile subsystem, so each artifact can be diffed
 * mechanically across PRs.
 *
 * The writer produces byte-identical output for identical inputs —
 * no timestamps, no locale-dependent formatting — which is what
 * lets the fig7 acceptance check compare `--jobs 1` and `--jobs 4`
 * artifacts with `cmp`.
 */

#ifndef SPT_COMMON_JSON_H
#define SPT_COMMON_JSON_H

#include <cstdint>
#include <string>

namespace spt {

/** Streaming JSON builder with explicit nesting. Keys/values are
 *  emitted in call order; commas and indentation are handled
 *  internally. Misnested calls trip an SPT_ASSERT. */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Names the next value inside an object. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);
    /** Doubles print as fixed-point with @p precision digits (JSON
     *  has no NaN/Inf; those are emitted as null). */
    JsonWriter &value(double v, int precision = 4);

    /** Shorthand for key(name).value(v). */
    template <typename T>
    JsonWriter &
    field(const std::string &name, const T &v)
    {
        return key(name).value(v);
    }
    JsonWriter &
    field(const std::string &name, double v, int precision)
    {
        return key(name).value(v, precision);
    }

    /** The finished document; all scopes must be closed. */
    const std::string &str() const;

  private:
    void separate();
    void indent();

    std::string out_;
    std::string stack_;      ///< '{' or '[' per open scope
    bool need_comma_ = false;
    bool have_key_ = false;
};

/** Writes @p content to @p path atomically enough for bench use
 *  (plain fopen/fwrite); throws FatalError if the file cannot be
 *  opened or fully written. */
void writeReportFile(const std::string &path,
                     const std::string &content);

} // namespace spt

#endif // SPT_COMMON_JSON_H
