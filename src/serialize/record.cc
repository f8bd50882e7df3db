#include "serialize/record.h"

namespace daspos {

bool wire::Fail(Status* error, const char* what) {
  *error = Status::Corruption(what);
  return false;
}

bool wire::Fail(Status* error, const Status& status) {
  *error = status;
  return false;
}

void PrefixFieldError(std::string_view record, std::string_view field,
                      Status* error) {
  *error = Status::Corruption(std::string(record) + "." + std::string(field) +
                              ": " + error->message());
}

Status TrailingBytes(std::string_view record) {
  return Status::Corruption("trailing bytes after " + std::string(record) +
                            " record");
}

}  // namespace daspos
