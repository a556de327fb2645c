// Fixture: a correct guard for a path with a dash and a subdirectory.

#ifndef CRNET_SIM_TWO_PART_HH
#define CRNET_SIM_TWO_PART_HH
#endif // CRNET_SIM_TWO_PART_HH
