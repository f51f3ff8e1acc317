#include "models/profiles.h"

#include "common/error.h"

namespace muffin::models {

double ArchitectureProfile::unfairness_for(const std::string& attribute) const {
  const auto it = unfairness.find(attribute);
  MUFFIN_REQUIRE(it != unfairness.end(),
                 "profile '" + name + "' has no unfairness target for '" +
                     attribute + "'");
  return it->second;
}

double ArchitectureProfile::floor_for(const std::string& attribute) const {
  const auto it = bottleneck_floor.find(attribute);
  if (it != bottleneck_floor.end()) return it->second;
  return 0.6 * unfairness_for(attribute);
}

const std::vector<ArchitectureProfile>& isic2019_profiles() {
  // Accuracy and age/site unfairness for the four Table I architectures are
  // the paper's vanilla numbers; the remaining six are read off Fig. 1(c)
  // and Fig. 5. Gender unfairness is small for every model (Fig. 1a-b).
  // Bottleneck floors encode Observation 2: DenseNet121 cannot improve site
  // below ~0.35 and ResNet-18 cannot improve age below ~0.24 (Table I).
  // Vanilla profiles draw their own random streams: no calibration alias.
  static const std::vector<ArchitectureProfile> kProfiles = {
      {"ShuffleNet_V2_X0_5", "ShuffleNet", 351304, 0.7550,
       {{"age", 0.42}, {"site", 0.50}, {"gender", 0.11}},
       {}, ""},
      {"ShuffleNet_V2_X1_0", "ShuffleNet", 1261804, 0.7721,
       {{"age", 0.36}, {"site", 0.45}, {"gender", 0.08}},
       {{"age", 0.27}, {"site", 0.42}}, ""},
      {"MobileNet_V3_Small", "MobileNet", 1526056, 0.7619,
       {{"age", 0.38}, {"site", 0.54}, {"gender", 0.09}},
       {{"age", 0.29}, {"site", 0.50}}, ""},
      {"MobileNet_V2", "MobileNet", 2234120, 0.7900,
       {{"age", 0.36}, {"site", 0.47}, {"gender", 0.07}},
       {}, ""},
      {"MobileNet_V3_Large", "MobileNet", 4212280, 0.8050,
       {{"age", 0.33}, {"site", 0.46}, {"gender", 0.06}},
       {}, ""},
      {"DenseNet121", "DenseNet", 6962056, 0.8183,
       {{"age", 0.31}, {"site", 0.36}, {"gender", 0.05}},
       {{"age", 0.25}, {"site", 0.35}}, ""},
      {"DenseNet201", "DenseNet", 18108296, 0.8190,
       {{"age", 0.30}, {"site", 0.40}, {"gender", 0.06}},
       {}, ""},
      {"ResNet-18", "ResNet", 11180616, 0.8128,
       {{"age", 0.26}, {"site", 0.43}, {"gender", 0.05}},
       {{"age", 0.24}, {"site", 0.33}}, ""},
      {"ResNet-34", "ResNet", 21288776, 0.8145,
       {{"age", 0.29}, {"site", 0.46}, {"gender", 0.06}},
       {}, ""},
      {"ResNet-50", "ResNet", 23524424, 0.8120,
       {{"age", 0.34}, {"site", 0.44}, {"gender", 0.07}},
       {}, ""},
  };
  return kProfiles;
}

const std::vector<ArchitectureProfile>& fitzpatrick17k_profiles() {
  // Fig. 7: existing models sit at accuracy ~61.5-62.5%, skin-tone
  // unfairness 0.25-0.35 and type unfairness 1.12-1.24. No calibration
  // aliases, as for ISIC2019.
  static const std::vector<ArchitectureProfile> kProfiles = {
      {"ResNet-18", "ResNet", 11185224, 0.6230,
       {{"skin_tone", 0.27}, {"type", 1.16}},
       {}, ""},
      {"ResNet-34", "ResNet", 21293384, 0.6205,
       {{"skin_tone", 0.30}, {"type", 1.20}},
       {}, ""},
      {"ResNet-50", "ResNet", 23542856, 0.6190,
       {{"skin_tone", 0.33}, {"type", 1.14}},
       {}, ""},
      {"ShuffleNet_V2_X0_5", "ShuffleNet", 352329, 0.6130,
       {{"skin_tone", 0.34}, {"type", 1.23}},
       {}, ""},
      {"ShuffleNet_V2_X1_0", "ShuffleNet", 1262829, 0.6170,
       {{"skin_tone", 0.31}, {"type", 1.21}},
       {}, ""},
      {"MobileNet_V3_Small", "MobileNet", 1527081, 0.6145,
       {{"skin_tone", 0.35}, {"type", 1.24}},
       {}, ""},
      {"MobileNet_V3_Large", "MobileNet", 4213305, 0.6220,
       {{"skin_tone", 0.29}, {"type", 1.18}},
       {}, ""},
  };
  return kProfiles;
}

const ArchitectureProfile& profile_by_name(
    const std::vector<ArchitectureProfile>& profiles,
    const std::string& name) {
  for (const ArchitectureProfile& profile : profiles) {
    if (profile.name == name) return profile;
  }
  throw Error("no architecture profile named '" + name + "'");
}

}  // namespace muffin::models
