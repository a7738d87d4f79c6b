#include "sim/sim_config.h"

namespace spt {

namespace {

EngineConfig
sptConfig(UntaintMethod method, ShadowKind shadow)
{
    EngineConfig cfg;
    cfg.scheme = ProtectionScheme::kSpt;
    cfg.spt.method = method;
    cfg.spt.shadow = shadow;
    cfg.spt.broadcast_width = 3;
    return cfg;
}

EngineConfig
scheme(ProtectionScheme s)
{
    EngineConfig cfg;
    cfg.scheme = s;
    return cfg;
}

} // namespace

std::vector<NamedConfig>
table2Configs()
{
    return {
        {"UnsafeBaseline", scheme(ProtectionScheme::kUnsafeBaseline)},
        {"SecureBaseline", scheme(ProtectionScheme::kSecureBaseline)},
        {"SPT{Fwd,NoShadowL1}",
         sptConfig(UntaintMethod::kForward, ShadowKind::kNone)},
        {"SPT{Bwd,NoShadowL1}",
         sptConfig(UntaintMethod::kBackward, ShadowKind::kNone)},
        {"SPT{Bwd,ShadowL1}",
         sptConfig(UntaintMethod::kBackward, ShadowKind::kShadowL1)},
        {"SPT{Bwd,ShadowMem}",
         sptConfig(UntaintMethod::kBackward, ShadowKind::kShadowMem)},
        {"SPT{Ideal,ShadowMem}",
         sptConfig(UntaintMethod::kIdeal, ShadowKind::kShadowMem)},
        {"STT", scheme(ProtectionScheme::kStt)},
    };
}

} // namespace spt
