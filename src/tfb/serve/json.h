#ifndef TFB_SERVE_JSON_H_
#define TFB_SERVE_JSON_H_

#include "tfb/base/json.h"

namespace tfb::serve {

// Kept so code naming these tfb::serve:: (tfbbench/, serve_test) still builds.
using base::AppendJsonDouble;
using base::AppendJsonString;
using base::JsonValue;
using base::ParseJson;

}  // namespace tfb::serve

#endif  // TFB_SERVE_JSON_H_
