#include "core/template_builder.hpp"

#include <cstring>
#include <string>

#include "soap/constants.hpp"
#include "textconv/dtoa.hpp"
#include "textconv/itoa.hpp"
#include "xml/escape.hpp"

namespace bsoap::core {
namespace {

using soap::Mio;
using soap::Param;
using soap::RpcCall;
using soap::Value;
using soap::ValueKind;

class Builder {
 public:
  explicit Builder(MessageTemplate& tmpl)
      : tmpl_(tmpl), buf_(tmpl.buffer()), dut_(tmpl.dut()) {}

  void build(const RpcCall& call) {
    dut_.reserve(leaf_estimate(call));
    buf_.append("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    buf_.append("<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"");
    buf_.append(soap::kSoapEnvelopeNs);
    buf_.append("\" xmlns:SOAP-ENC=\"");
    buf_.append(soap::kSoapEncodingNs);
    buf_.append("\" xmlns:xsi=\"");
    buf_.append(soap::kXsiNs);
    buf_.append("\" xmlns:xsd=\"");
    buf_.append(soap::kXsdNs);
    buf_.append("\" SOAP-ENV:encodingStyle=\"");
    buf_.append(soap::kSoapEncodingNs);
    buf_.append("\"><SOAP-ENV:Body><ns1:");
    buf_.append(call.method);
    buf_.append(" xmlns:ns1=\"");
    buf_.append(call.service_namespace);
    buf_.append("\">");
    for (const Param& p : call.params) {
      emit_value(p.name, p.value);
    }
    buf_.append("</ns1:");
    buf_.append(call.method);
    buf_.append("></SOAP-ENV:Body></SOAP-ENV:Envelope>");
    tmpl_.signature = call.structure_signature();
  }

 private:
  static std::size_t leaf_estimate(const RpcCall& call) {
    std::size_t total = 0;
    for (const Param& p : call.params) total += p.value.leaf_count();
    return total;
  }

  /// Emits one serialized leaf — open-tag prefix, value text, closing tag,
  /// policy padding — in a single contiguous reservation (one bounds check
  /// per array element on the hot path); records the DUT entry.
  void emit_leaf(std::string_view prefix, const char* text, std::uint32_t len,
                 LeafType type, std::string_view close_tag,
                 DutEntry::Shadow shadow,
                 std::uint32_t shadow_string = DutEntry::kNoString) {
    const LeafTypeInfo& info = leaf_type_info(type);
    const std::uint32_t width = tmpl_.config().stuffing.width_for(info, len);
    const std::uint32_t region = static_cast<std::uint32_t>(prefix.size()) +
                                 width +
                                 static_cast<std::uint32_t>(close_tag.size());
    char* p = buf_.reserve_contiguous(region);
    buffer::BufPos pos = buf_.reserved_pos();
    pos.offset += static_cast<std::uint32_t>(prefix.size());
    if (!prefix.empty()) {
      std::memcpy(p, prefix.data(), prefix.size());
      p += prefix.size();
    }
    std::memcpy(p, text, len);
    std::memcpy(p + len, close_tag.data(), close_tag.size());
    std::memset(p + len + close_tag.size(), ' ', width - len);
    buf_.commit(region);

    DutEntry entry;
    entry.type = &info;
    entry.pos = pos;
    entry.serialized_len = len;
    entry.field_width = width;
    entry.close_tag_len = static_cast<std::uint32_t>(close_tag.size());
    entry.shadow = shadow;
    entry.shadow_string = shadow_string;
    dut_.add_entry(entry);
  }

  void emit_int_leaf(std::string_view prefix, std::int32_t v,
                     std::string_view close_tag) {
    char text[textconv::kMaxInt32Chars];
    const int len = textconv::write_i32(text, v);
    DutEntry::Shadow shadow;
    shadow.i = v;
    emit_leaf(prefix, text, static_cast<std::uint32_t>(len), LeafType::kInt32,
              close_tag, shadow);
  }

  void emit_int64_leaf(std::string_view prefix, std::int64_t v,
                       std::string_view close_tag) {
    char text[textconv::kMaxInt64Chars];
    const int len = textconv::write_i64(text, v);
    DutEntry::Shadow shadow;
    shadow.i = v;
    emit_leaf(prefix, text, static_cast<std::uint32_t>(len), LeafType::kInt64,
              close_tag, shadow);
  }

  void emit_double_leaf(std::string_view prefix, double v,
                        std::string_view close_tag) {
    char text[textconv::kMaxDoubleChars];
    const int len = textconv::write_double(text, v);
    DutEntry::Shadow shadow;
    shadow.d = v;
    emit_leaf(prefix, text, static_cast<std::uint32_t>(len), LeafType::kDouble,
              close_tag, shadow);
  }

  void emit_bool_leaf(std::string_view prefix, bool v,
                      std::string_view close_tag) {
    const std::string_view text = v ? "true" : "false";
    DutEntry::Shadow shadow;
    shadow.i = v ? 1 : 0;
    emit_leaf(prefix, text.data(), static_cast<std::uint32_t>(text.size()),
              LeafType::kBool, close_tag, shadow);
  }

  void emit_string_leaf(std::string_view prefix, const std::string& v,
                        std::string_view close_tag) {
    std::string escaped;
    xml::escape_append(escaped, v);
    DutEntry::Shadow shadow;
    shadow.i = 0;
    const std::uint32_t shadow_index = dut_.add_string_shadow(v);
    emit_leaf(prefix, escaped.data(),
              static_cast<std::uint32_t>(escaped.size()), LeafType::kString,
              close_tag, shadow, shadow_index);
  }

  /// Whether an array of `n` elements gets an ArraySegment descriptor (and
  /// an SoA shadow plane) for the bulk update path.
  bool segment_worthy(std::size_t n) const {
    const BulkUpdateConfig& bulk = tmpl_.config().bulk;
    return bulk.enable && n >= bulk.min_elements;
  }

  void open_tag(std::string_view name, std::string_view attrs) {
    buf_.append("<");
    buf_.append(name);
    buf_.append(attrs);
    buf_.append(">");
  }

  void emit_value(const std::string& name, const Value& value) {
    const std::string close_tag = "</" + name + ">";
    switch (value.kind()) {
      case ValueKind::kInt32:
        open_tag(name, " xsi:type=\"xsd:int\"");
        emit_int_leaf({}, value.as_int(), close_tag);
        break;
      case ValueKind::kInt64:
        open_tag(name, " xsi:type=\"xsd:long\"");
        emit_int64_leaf({}, value.as_int64(), close_tag);
        break;
      case ValueKind::kDouble:
        open_tag(name, " xsi:type=\"xsd:double\"");
        emit_double_leaf({}, value.as_double(), close_tag);
        break;
      case ValueKind::kBool:
        open_tag(name, " xsi:type=\"xsd:boolean\"");
        emit_bool_leaf({}, value.as_bool(), close_tag);
        break;
      case ValueKind::kString:
        open_tag(name, " xsi:type=\"xsd:string\"");
        emit_string_leaf({}, value.as_string(), close_tag);
        break;
      case ValueKind::kDoubleArray: {
        open_array_tag(name, soap::kXsdDouble, value.doubles().size());
        const std::uint32_t first = static_cast<std::uint32_t>(dut_.size());
        for (const double v : value.doubles()) {
          emit_double_leaf("<item>", v, "</item>");
        }
        if (segment_worthy(value.doubles().size())) {
          dut_.add_double_segment(first, value.doubles().data(),
                                  value.doubles().size());
        }
        buf_.append(close_tag);
        break;
      }
      case ValueKind::kIntArray: {
        open_array_tag(name, soap::kXsdInt, value.ints().size());
        const std::uint32_t first = static_cast<std::uint32_t>(dut_.size());
        for (const std::int32_t v : value.ints()) {
          emit_int_leaf("<item>", v, "</item>");
        }
        if (segment_worthy(value.ints().size())) {
          dut_.add_int_segment(first, value.ints().data(),
                               value.ints().size());
        }
        buf_.append(close_tag);
        break;
      }
      case ValueKind::kMioArray: {
        open_array_tag(name, "ns1:MIO", value.mios().size());
        const std::uint32_t first = static_cast<std::uint32_t>(dut_.size());
        for (const Mio& m : value.mios()) {
          emit_int_leaf("<item><x>", m.x, "</x>");
          emit_int_leaf("<y>", m.y, "</y>");
          emit_double_leaf("<v>", m.value, "</v></item>");
        }
        if (segment_worthy(value.mios().size())) {
          dut_.add_mio_segment(first, value.mios().data(),
                               value.mios().size());
        }
        buf_.append(close_tag);
        break;
      }
      case ValueKind::kStruct: {
        open_tag(name, "");
        for (const Value::Member& m : value.members()) {
          emit_value(m.name, m.value);
        }
        buf_.append(close_tag);
        break;
      }
    }
  }

  void open_array_tag(std::string_view name, std::string_view element_type,
                      std::size_t n) {
    buf_.append("<");
    buf_.append(name);
    buf_.append(" xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"");
    buf_.append(element_type);
    buf_.append("[");
    char digits[20];
    const int len = textconv::write_u64(digits, n);
    buf_.append(digits, static_cast<std::size_t>(len));
    buf_.append("]\">");
  }

  MessageTemplate& tmpl_;
  buffer::ChunkedBuffer& buf_;
  DutTable& dut_;
};

}  // namespace

std::unique_ptr<MessageTemplate> build_template(const RpcCall& call,
                                                const TemplateConfig& config) {
  auto tmpl = std::make_unique<MessageTemplate>(config);
  Builder(*tmpl).build(call);
  return tmpl;
}

void rebuild_template(MessageTemplate& tmpl, const RpcCall& call) {
  tmpl.renew_uid();
  tmpl.buffer().clear();
  tmpl.dut().clear();
  Builder(tmpl).build(call);
}

}  // namespace bsoap::core
