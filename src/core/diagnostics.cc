#include "core/diagnostics.h"

#include <sstream>

namespace anc::core {

const char *
severityName(Severity s)
{
    switch (s) {
    case Severity::Note:
        return "note";
    case Severity::Warning:
        return "warning";
    case Severity::Error:
        return "error";
    }
    return "unknown";
}

const char *
stageName(Stage s)
{
    switch (s) {
    case Stage::Parse:
        return "parse";
    case Stage::Validate:
        return "validate";
    case Stage::Dependence:
        return "dependence-analysis";
    case Stage::Normalize:
        return "normalization";
    case Stage::Legality:
        return "legality";
    case Stage::Transform:
        return "transform";
    case Stage::Plan:
        return "codegen-planning";
    case Stage::StrengthReduce:
        return "strength-reduction";
    case Stage::Emit:
        return "emit";
    case Stage::TranslationValidate:
        return "translation-validate";
    case Stage::Driver:
        return "driver";
    }
    return "unknown";
}

namespace {

std::string
quoteEscaped(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

/** JSON string escaping per RFC 8259 (control chars as \u00XX). */
std::string
jsonQuoted(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out.push_back(hex[c >> 4]);
                out.push_back(hex[c & 0xf]);
            } else {
                out.push_back(char(c));
            }
        }
    }
    out.push_back('"');
    return out;
}

} // namespace

std::string
Diagnostic::render() const
{
    std::ostringstream os;
    os << severityName(severity) << " [" << stageName(stage) << "]";
    if (line >= 0)
        os << " line " << line;
    os << ": " << message;
    if (!detail.empty())
        os << " (" << detail << ")";
    if (!origin.empty())
        os << " [request " << origin << "]";
    return os.str();
}

std::string
Diagnostic::renderMachine() const
{
    std::ostringstream os;
    os << "severity=" << severityName(severity)
       << " stage=" << stageName(stage) << " line=" << line
       << " message=" << quoteEscaped(message)
       << " detail=" << quoteEscaped(detail)
       << " origin=" << quoteEscaped(origin);
    return os.str();
}

std::string
Diagnostic::renderJson() const
{
    std::ostringstream os;
    os << "{\"severity\": " << jsonQuoted(severityName(severity))
       << ", \"stage\": " << jsonQuoted(stageName(stage))
       << ", \"line\": " << line
       << ", \"message\": " << jsonQuoted(message)
       << ", \"detail\": " << jsonQuoted(detail)
       << ", \"origin\": " << jsonQuoted(origin) << "}";
    return os.str();
}

void
Diagnostics::note(Stage stage, std::string message, std::string detail)
{
    add({Severity::Note, stage, std::move(message), std::move(detail), -1});
}

void
Diagnostics::warning(Stage stage, std::string message, std::string detail)
{
    add({Severity::Warning, stage, std::move(message), std::move(detail),
         -1});
}

void
Diagnostics::error(Stage stage, std::string message, std::string detail)
{
    add({Severity::Error, stage, std::move(message), std::move(detail),
         -1});
}

bool
Diagnostics::hasErrors() const
{
    for (const Diagnostic &d : diags_)
        if (d.severity == Severity::Error)
            return true;
    return false;
}

bool
Diagnostics::hasWarnings() const
{
    for (const Diagnostic &d : diags_)
        if (d.severity == Severity::Warning)
            return true;
    return false;
}

void
Diagnostics::stampOrigin(const std::string &origin)
{
    for (Diagnostic &d : diags_)
        if (d.origin.empty())
            d.origin = origin;
}

bool
Diagnostics::mentionsStage(Stage stage) const
{
    for (const Diagnostic &d : diags_)
        if (d.stage == stage)
            return true;
    return false;
}

std::string
Diagnostics::render() const
{
    std::ostringstream os;
    for (const Diagnostic &d : diags_)
        os << d.render() << "\n";
    return os.str();
}

std::string
Diagnostics::renderMachine() const
{
    std::ostringstream os;
    for (const Diagnostic &d : diags_)
        os << d.renderMachine() << "\n";
    return os.str();
}

std::string
Diagnostics::renderJson() const
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < diags_.size(); ++i)
        os << (i ? ", " : "") << diags_[i].renderJson();
    os << "]";
    return os.str();
}

} // namespace anc::core
